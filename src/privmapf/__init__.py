"""Privacy-preserving multi-agent path finding on grid maps.

Each agent hides its true start and goal inside a group of k published
(start, goal) pairs; a joint plan over all k*N pairs is broadcast, and
every agent follows its real path while the other k-1 stay plausible
decoys. The fov-aware variant additionally keeps groups outside each
other's square field of view, which makes safe-zone post-processing
possible: agents shorten their real paths inside regions no one else can
observe, without touching the broadcast plan.

Names are imported from the modules that define them (``privmapf.grid``,
``privmapf.pipeline``, ...); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
