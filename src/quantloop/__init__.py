"""quantloop: simulation and analysis of PI control loops whose input and
output signals pass through an integer quantizer."""

__version__ = "0.1.0"
