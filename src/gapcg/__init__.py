"""Column generation for the generalized assignment problem.

Four pricing strategies (plain minimum reduced cost, directional dual
smoothing, heuristic and exact template pricing) over a shared knapsack
kernel and a warm-started simplex master, plus a Lagrangian-relaxation
baseline and a benchmark harness.
"""

from .driver import Bounds, CgConfig, RunReport, run, run_lr, update_bounds
from .instance import (GapInstance, GeneratorSpec, InfeasibleInstanceError,
                       ParseError, generate, parse, serialize, validate)
from .knapsack import (KnapsackProblem, KnapsackSolution, LexKnapsackProblem,
                       brute_force_lex, lex_knapsack, min_knapsack, min_knapsack_batch)
from .lagrangian import lr_evaluate, lr_solve
from .pricing import (LtState, PessoaState, PricingOutcome, dantzig_price,
                      lt_price, lt_round, mt_price, pessoa_round, similarity_class)
from .rmp import (AGE_POLICIES, Column, ColumnPool, MasterInfeasibleError,
                  MasterLp, RmpSolution, age_threshold, build_and_solve,
                  extract_integer_solution, manage_columns, project_primal,
                  solve_compact_lp)

__version__ = "0.1.0"
