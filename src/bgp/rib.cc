#include "bgp/rib.h"

namespace s2s::bgp {

Rib Rib::from_topology(const topology::Topology& topo) {
  Rib rib;
  for (const auto& entry : topo.prefixes4) {
    if (entry.announced) rib.insert(entry.prefix, entry.origin);
  }
  for (const auto& entry : topo.prefixes6) {
    if (entry.announced) rib.insert(entry.prefix, entry.origin);
  }
  return rib;
}

std::optional<net::Asn> Rib::origin(const net::IPAddr& addr) const {
  return addr.is_v4() ? origin(addr.v4()) : origin(addr.v6());
}

}  // namespace s2s::bgp
