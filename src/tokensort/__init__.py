"""tokensort: ordering multi-dimensional tokens as dimensionality reduction.

Sorting schemes (fixed key functions, graph traversals, and a trainable
latent-sort autoencoder), ordering-ambiguity and error analysis, set and
graph metrics, synthetic planar-graph generation, and an exhaustive
open-path benchmark.
"""

__version__ = "0.1.0"

from .core import (
    Graph,
    SortedSequence,
    TokenSet,
    read_graphs,
    read_token_sets,
    tokenize_edges,
    write_graphs,
    write_sequences,
    write_token_sets,
)
from .sorters import (
    bfs_sort,
    dfs_sort,
    lexicographical_sort,
    mean_squared_sort,
    sort_by_keys,
    svd_lowrank_sort,
)
from .latentsort import (
    LatentSortModel,
    TrainConfig,
    init_model,
    latent_sort,
    load_model,
    save_model,
    train,
)
from .analysis import (
    ambiguity_error,
    ambiguity_sets,
    neighbor_error_bound,
    rank_probability_matrix,
    sorting_error,
    swap_probability,
    tridiagonal_P,
    uniform_ambiguity_P,
)
from .metrics import ehd, emd, set_prf, size_diff, smd
from .datagen import PlanarGenConfig, delaunay, generate_planar_graph
from .tspbench import BenchConfig, path_length, percentile_longer, run_tsp_benchmark
