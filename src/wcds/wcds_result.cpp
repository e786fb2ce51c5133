#include "wcds/wcds_result.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <utility>

#include "check/check.h"

namespace wcds::core {

WcdsResult WcdsResult::from_members(std::size_t n, std::vector<NodeId> mis,
                                    std::vector<NodeId> additional) {
  // Strictly ascending: no pair of neighbors is out of order or equal.
  const auto ascending = [](const std::vector<NodeId>& list) {
    return std::adjacent_find(list.begin(), list.end(),
                              std::greater_equal<>()) == list.end();
  };
  WCDS_REQUIRE(ascending(mis), "WcdsResult: MIS list is not strictly ascending");
  WCDS_REQUIRE(ascending(additional),
               "WcdsResult: additional list is not strictly ascending");

  WcdsResult result;
  result.dominators.reserve(mis.size() + additional.size());
  std::merge(mis.begin(), mis.end(), additional.begin(), additional.end(),
             std::back_inserter(result.dominators));
  WCDS_REQUIRE(ascending(result.dominators),
               "WcdsResult: a node is in both the MIS and additional lists");
  WCDS_REQUIRE(result.dominators.empty() || result.dominators.back() < n,
               "WcdsResult: dominator " << result.dominators.back()
                                        << " is not below n = " << n);
  result.mask.assign(n, false);
  for (const NodeId u : result.dominators) result.mask[u] = true;
  result.mis_dominators = std::move(mis);
  result.additional_dominators = std::move(additional);
  return result;
}

}  // namespace wcds::core
