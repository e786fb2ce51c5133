// Test access to maintenance::DynamicWcds internals: state corruptions the
// event interface cannot produce, and the bridge search behind the event
// path.  Every argument and result is a name (external node ID).
#pragma once

#include <cstdint>

#include "graph/types.h"
#include "maintenance/dynamic_wcds.h"

namespace wcds::maintenance {

class DynamicWcdsTestPeer {
 public:
  static void set_mis(DynamicWcds& net, NodeId u, bool in_mis) {
    net.mis_[net.graph_.slot_of(u)] = in_mis;
  }

  // Sets how many bridge records name u as their via; 0 drops u from the
  // backbone while its records stay.
  static void set_via_count(DynamicWcds& net, NodeId u, std::uint32_t count) {
    net.via_count_[net.graph_.slot_of(u)] = count;
  }

  // DynamicWcds::row_via(a, b) by name.
  static NodeId row_via(DynamicWcds& net, NodeId a, NodeId b) {
    const NodeId v =
        net.row_via(net.graph_.slot_of(a), net.graph_.slot_of(b));
    return v == kInvalidNode ? kInvalidNode : net.graph_.name_of(v);
  }

  // Sets row_via's stamp counter, so the next calls run into its wrap.
  static void set_row_via_epoch(DynamicWcds& net, std::uint32_t epoch) {
    net.near_b_epoch_ = epoch;
  }
};

}  // namespace wcds::maintenance
