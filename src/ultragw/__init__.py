"""Ultrametric Gromov-Wasserstein distances for finite ultrametric and
ultra-dissimilarity measure spaces."""

from .spaces import (DendroNode, QuotientSpace, UmSpace, ValidationReport,
                     dendro_from_json, dendro_to_json, from_dendrogram,
                     load_space, quotient, save_space, snowflake,
                     space_from_json, space_to_json, spectrum, to_dendrogram,
                     validate)
from .transport import (ScalarMeasure, check_coupling, exact_ot, lam,
                        product_coupling, pushforward, w_halfline,
                        w_halfline_rows, w_line_classical, w_quantile,
                        w_ultrametric)
from .gw import (FwConfig, GwResult, SizeCapError, canonical_signature,
                 dgw_fw, diam_p, dis_classical, dis_ult, hitrun_couplings,
                 ugh_exact, ugw_fw, ugw_inf_exact, usturm_bruteforce)
from .bounds import (eccentricities, flb, global_distance_distribution,
                     local_distance_distribution, slb, tlb, uflb, uslb,
                     uslb1_decomposition, utlb)
from .phylo import (NewickError, PhyloNode, parse_newick, parse_newick_multi,
                    tree_shape_space, treegram, write_newick)
from .synth import GenSpec, gen_ultrametric, make_rng, perturb

__version__ = "0.1.0"
