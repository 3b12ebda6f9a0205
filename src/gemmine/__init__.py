"""Mining sparse trainable subnetworks from randomly initialized networks.

Miners: score descent with iterative freezing (``gem_mine``), top-k score
optimization (``edge_popup``), iterative magnitude pruning (``imp``), and
engineered-ratio random masks (``smart_ratio``). Mined masks feed the
shuffle / reinit / inversion sanity suite and a masked finetuning trainer.

Each name is imported from the module that defines it; this package binds
only its modules.
"""

# loads every module but cli: perfbench's tracer runs ``import gemmine`` and then patches
# the traced functions in every module that import loaded
from . import harness  # noqa: F401
