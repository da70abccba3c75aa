"""Exact computer algebra for noncommutative deformations of D-modules on
finite covers: cohomology of cover-poset diagrams, Ext^1 of cyclic D-modules
as derivation cokernels, and the order-by-order obstruction calculus that
builds pro-representing hulls.
"""

__version__ = "0.1.0"

# The exact elimination runs in pure Python. Benchmark run records carry
# this name, and their comparison refuses records whose backends differ.
KERNEL_BACKEND = "pure"

__all__ = ["KERNEL_BACKEND", "__version__"]
