"""Homotopy groups of gauge groups of principal bundles.

The package computes pi_n of the gauge group of a principal K-bundle
over a sphere or a closed orientable surface from catalogued homotopy
groups of K and Samelson pairing data, by running the evaluation
fibration's long exact sequence with the connecting map given by a
negated Samelson product, plus closed rational forms.
"""
from .fgab import (
    CapacityError,
    FgAbGroup,
    GroupElement,
    Homomorphism,
    IntMatrix,
    canonicalize,
    cokernel,
    direct_sum,
    direct_sum_with_injections,
    hom_decompose,
    relation_matrix,
    snf,
)
from .catalog import (
    Catalog,
    CatalogError,
    CatalogParseError,
    CatalogValidationError,
    GroupCatalogEntry,
    PairingMatrix,
    TableDepthError,
    UnknownGroupError,
    default_catalog,
    default_catalog_path,
    load_catalog,
)
from .exactseq import SequenceResult, resolve_extension
from .gaugecalc import (
    BundleSpec,
    PairingUnavailable,
    Sphere,
    Surface,
    connecting_hom_sphere,
    connecting_hom_surface,
    gauge_homotopy,
    gauge_homotopy_rational,
)

__version__ = "0.1.0"
