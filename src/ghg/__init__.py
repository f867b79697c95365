"""Homotopy groups of gauge groups of principal bundles.

The package computes pi_n of the gauge group of a principal K-bundle
over a sphere or a closed orientable surface from catalogued homotopy
groups of K and Samelson pairing data, by running the evaluation
fibration's long exact sequence with the connecting map given by a
negated Samelson product, plus closed rational forms.
"""
__version__ = "0.1.0"
