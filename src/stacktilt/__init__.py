"""stacktilt: tilting bundles of line bundles on toric Fano DM stacks
of Picard rank one and two, with exact combinatorial verification."""

__version__ = "0.1.0"
