"""Shard execution for the sharded stream cube.

:class:`~repro.cluster.backends.InprocBackend` runs N
:class:`~repro.cluster.backends.ShardHost`-wrapped engines in this process
behind a thread pool — bit-identical to the engines by construction.
"""

from repro.cluster.backends import InprocBackend, ShardHost

__all__ = ["InprocBackend", "ShardHost"]
