#include "core/as_path_infer.h"

#include <algorithm>

namespace s2s::core {

InferredPath AsPathInferrer::infer(const probe::TracerouteRecord& record,
                                   net::Asn src_asn) const {
  InferredPath out;

  // Token per hop, built in place in the output path: the mapped ASN, or
  // kUnknownAsn for a gap. Track the two gap causes separately for the
  // Table 1 quality class.
  bool any_unresponsive = false;
  bool any_unmapped = false;
  net::AsPath& tokens = out.as_path;
  tokens.reserve(record.hops.size() + 1);
  tokens.push_back(src_asn);  // the probing host itself
  for (const auto& hop : record.hops) {
    if (!hop.addr) {
      any_unresponsive = true;
      tokens.push_back(net::kUnknownAsn);
      continue;
    }
    const auto asn = rib_.origin(*hop.addr);
    if (!asn) {
      any_unmapped = true;
      tokens.push_back(net::kUnknownAsn);
    } else {
      tokens.push_back(*asn);
    }
  }

  out.quality = any_unresponsive ? TraceQuality::kMissingIpLevel
               : any_unmapped    ? TraceQuality::kMissingAsLevel
                                 : TraceQuality::kCompleteAsLevel;

  // Impute gap runs whose flanking ASNs agree.
  for (std::size_t i = 0; i < tokens.size();) {
    if (tokens[i].known()) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < tokens.size() && !tokens[j].known()) ++j;
    if (i > 0 && j < tokens.size() && tokens[i - 1] == tokens[j]) {
      for (std::size_t k = i; k < j; ++k) tokens[k] = tokens[j];
      out.imputed = true;
    }
    i = j;
  }

  // Collapse consecutive duplicates (runs of kUnknownAsn also collapse to
  // one gap marker).
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());

  // AS loop: a known ASN re-appears after the path left it. Collapsed
  // paths are a handful of ASes long, so a scan of the prefix beats
  // building a set per traceroute.
  for (auto it = tokens.begin(); it != tokens.end() && !out.has_as_loop;
       ++it) {
    out.has_as_loop = it->known() && std::find(tokens.begin(), it, *it) != it;
  }
  return out;
}

}  // namespace s2s::core
