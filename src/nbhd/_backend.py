"""The kernel layer under its historical name: the benchmark tracer
(perfbench/tracer.py) looks the kernels up as nbhd._backend.kernels to
time them as a layer of their own.  Nothing in the package imports it."""

from . import bitslice as kernels
