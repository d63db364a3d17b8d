"""The repository benchmark: end-to-end workloads over the shipping
simulator, with an optional traced run that attributes host time to
each layer from outside the program (see ``perfbench/README.md``)."""
