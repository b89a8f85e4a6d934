// Umbrella header: the whole parct public API.
//
//   #include <parct.hpp>
//
// Sub-headers remain individually includable; see README.md for the map.
#pragma once

#include "baseline/euler_tour_tree.hpp"
#include "baseline/link_cut_tree.hpp"
#include "contraction/analysis.hpp"
#include "contraction/construct.hpp"
#include "contraction/contraction_forest.hpp"
#include "contraction/dynamic_update.hpp"
#include "contraction/hooks.hpp"
#include "contraction/serialize.hpp"
#include "contraction/validate.hpp"
#include "forest/change_set.hpp"
#include "forest/forest.hpp"
#include "forest/generators.hpp"
#include "forest/tree_builder.hpp"
#include "forest/validation.hpp"
#include "hashing/coin_flips.hpp"
#include "hashing/four_independent.hpp"
#include "hashing/splitmix64.hpp"
#include "hashing/two_independent.hpp"
#include "parallel/fork_join.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scheduler.hpp"
#include "primitives/counting.hpp"
#include "primitives/pack.hpp"
#include "primitives/sort.hpp"
#include "rc/batch_queries.hpp"
#include "rc/expression_eval.hpp"
#include "rc/incremental_expression.hpp"
#include "rc/path_aggregate.hpp"
#include "rc/rc_forest.hpp"
#include "rc/subtree_aggregate.hpp"
#include "rc/tree_aggregate.hpp"
#include "static_contraction/static_contract.hpp"
