"""The miners, one module each: ``gem``, ``edge_popup``, ``imp`` and ``smart_ratio``, which share ``common``.

Each miner function is imported from its module; this package binds no name of its own.
"""
