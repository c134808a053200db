"""3- and 5-isogenies of supersingular Edwards curves.

Counted finite-field arithmetic, the three-class generalized Edwards
model, affine and x-only odd-degree isogenies, SIDH-friendly prime
search, and a desk-scale SIDH key exchange over F_{p^2}.
"""

from .curve import (COMPLETE, QUADRATIC, TWISTED, AffinePoint, EdwardsCurve,
                    SingularPoint, SpecialPointSet, classify, j_invariant)
from .errors import (BadKernelGenerator, DeskScaleOnly, DivisionByZero,
                     EdwardsError, EvenDegreeUnsupported, ExceptionalInput,
                     ExceptionalPair, FieldMismatch, InvalidCurve,
                     InvalidParameter, InvalidTwist, NotASquare, NotOnCurve,
                     ProtocolError, SetupFailed)
from .field import FieldElement, OpCounter, PrimeField, is_probable_prime
from .field_ext import QuadExtElement, QuadExtField
from .isogeny import (IsogenyChain, OddIsogeny, OddKernel,
                      is_order3_abscissa, order3_division_value, recover_y)
from .sidh import (PartyKeypair, ProtocolParams, PublicKey, TorsionBasis,
                   count_cyclic_subgroups, derive_shared, keygen,
                   run_exchange, setup)
from .supersingular import (COMPLETE_4, QUADRATIC_8, SearchSpec, SidhPrime,
                            congruence_gate, estimate_bit_length,
                            is_supersingular, search_sidh_primes,
                            sidh_key_bits, supersingular_d_scan,
                            supersingular_excluded, verify_reference_table)
from .xonly import (ProjParams, XZPoint, eval_3_isog, eval_5_isog,
                    get_3_isog, get_5_isog)

__version__ = "0.1.0"
