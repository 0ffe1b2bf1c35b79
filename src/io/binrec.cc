#include "io/binrec.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <map>
#include <ostream>
#include <tuple>

#include "io/crc32c.h"
#include "io/records_io.h"
#include "io/varint.h"

namespace s2s::io {

namespace {

/// Upper bound a decoder trusts for a per-record hop count (traceroute
/// TTLs cap out near 64; anything past 255 in a CRC-valid block is a
/// structural decode bug, not data).
constexpr std::uint64_t kMaxHopsPerRecord = 255;

obs::Counter obs_blocks_read() {
  static obs::Counter c =
      obs::MetricsRegistry::global().counter("s2s.io.binrec.blocks_read");
  return c;
}

obs::Counter obs_crc_failures() {
  static obs::Counter c =
      obs::MetricsRegistry::global().counter("s2s.io.binrec.crc_failures");
  return c;
}

obs::Counter obs_bytes_mapped() {
  static obs::Counter c =
      obs::MetricsRegistry::global().counter("s2s.io.binrec.bytes_mapped");
  return c;
}

obs::Counter obs_records_read() {
  static obs::Counter c =
      obs::MetricsRegistry::global().counter("s2s.io.binrec.records_read");
  return c;
}

std::uint8_t family_code(net::Family f) {
  return f == net::Family::kIPv4 ? 4 : 6;
}

void put_addr(std::string& out, const net::IPAddr& addr) {
  if (addr.is_v4()) {
    out.push_back(4);
    put_u32le(out, addr.v4().value());
  } else {
    out.push_back(6);
    const auto& b = addr.v6().bytes();
    out.append(reinterpret_cast<const char*>(b.data()), b.size());
  }
}

bool get_addr(ByteCursor& cur, net::IPAddr& out) {
  std::uint8_t tag = 0;
  if (!cur.get_u8(tag)) return false;
  if (tag == 4) {
    std::uint32_t v = 0;
    if (!cur.get_u32(v)) return false;
    out = net::IPv4Addr(v);
    return true;
  }
  if (tag == 6) {
    net::IPv6Addr::Bytes b{};
    if (!cur.get_bytes(b.data(), b.size())) return false;
    out = net::IPv6Addr(b);
    return true;
  }
  return false;
}

/// Per-block (src, dst, family) dictionary in first-appearance order, so
/// a block's bytes are a pure function of its record sequence.
class PairDict {
 public:
  template <typename Record>
  std::uint64_t intern(const Record& r) {
    const auto key = std::make_tuple(r.src, r.dst, family_code(r.family));
    const auto [it, inserted] = index_.emplace(key, entries_.size());
    if (inserted) entries_.push_back(key);
    return it->second;
  }

  void encode(std::string& out) const {
    put_varint(out, entries_.size());
    for (const auto& [src, dst, fam] : entries_) {
      put_varint(out, src);
      put_varint(out, dst);
      out.push_back(static_cast<char>(fam));
    }
  }

 private:
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint8_t>,
           std::uint64_t>
      index_;
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint8_t>>
      entries_;
};

struct PairEntry {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  net::Family family = net::Family::kIPv4;
};

bool decode_pair_dict(ByteCursor& cur, std::size_t record_count,
                      std::vector<PairEntry>& dict) {
  std::uint64_t n = 0;
  if (!cur.get_varint(n)) return false;
  if (n > record_count || (record_count > 0 && n == 0)) return false;
  dict.resize(static_cast<std::size_t>(n));
  for (auto& e : dict) {
    std::uint64_t src = 0, dst = 0;
    std::uint8_t fam = 0;
    if (!cur.get_varint(src) || src > 0xFFFFFFFFull) return false;
    if (!cur.get_varint(dst) || dst > 0xFFFFFFFFull) return false;
    if (!cur.get_u8(fam) || (fam != 4 && fam != 6)) return false;
    e.src = static_cast<std::uint32_t>(src);
    e.dst = static_cast<std::uint32_t>(dst);
    e.family = fam == 4 ? net::Family::kIPv4 : net::Family::kIPv6;
  }
  return true;
}

bool decode_pair_indices(ByteCursor& cur, std::size_t record_count,
                         std::size_t dict_size,
                         std::vector<std::uint32_t>& idx) {
  idx.resize(record_count);
  for (auto& i : idx) {
    std::uint64_t v = 0;
    if (!cur.get_varint(v) || v >= dict_size) return false;
    i = static_cast<std::uint32_t>(v);
  }
  return true;
}

void encode_times(std::string& out,
                  const std::vector<std::int64_t>& times) {
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    put_varint_signed(out, i == 0 ? times[0] : times[i] - prev);
    prev = times[i];
  }
}

bool decode_times(ByteCursor& cur, std::size_t record_count,
                  std::vector<std::int64_t>& times) {
  times.resize(record_count);
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < record_count; ++i) {
    std::int64_t v = 0;
    if (!cur.get_varint_signed(v)) return false;
    times[i] = i == 0 ? v : prev + v;
    prev = times[i];
  }
  return true;
}

void encode_bitmap(std::string& out, const std::vector<bool>& bits) {
  for (std::size_t i = 0; i < bits.size(); i += 8) {
    std::uint8_t byte = 0;
    for (std::size_t j = 0; j < 8 && i + j < bits.size(); ++j) {
      if (bits[i + j]) byte |= static_cast<std::uint8_t>(1u << j);
    }
    out.push_back(static_cast<char>(byte));
  }
}

bool decode_bitmap(ByteCursor& cur, std::size_t record_count,
                   std::vector<bool>& bits) {
  bits.resize(record_count);
  for (std::size_t i = 0; i < record_count; i += 8) {
    std::uint8_t byte = 0;
    if (!cur.get_u8(byte)) return false;
    for (std::size_t j = 0; j < 8 && i + j < record_count; ++j) {
      bits[i + j] = (byte >> j) & 1u;
    }
  }
  return true;
}

// -- Block payload encoders --------------------------------------------------

std::string encode_ping_payload(const std::vector<probe::PingRecord>& recs,
                                std::int64_t& first_time,
                                std::int64_t& last_time) {
  std::string out;
  PairDict dict;
  std::vector<std::uint64_t> idx;
  std::vector<std::int64_t> times;
  std::vector<bool> success;
  idx.reserve(recs.size());
  times.reserve(recs.size());
  success.reserve(recs.size());
  first_time = recs.empty() ? 0 : recs.front().time.seconds();
  last_time = first_time;
  for (const auto& r : recs) {
    idx.push_back(dict.intern(r));
    times.push_back(r.time.seconds());
    success.push_back(r.success);
    first_time = std::min(first_time, r.time.seconds());
    last_time = std::max(last_time, r.time.seconds());
  }
  dict.encode(out);
  for (const auto i : idx) put_varint(out, i);
  encode_times(out, times);
  encode_bitmap(out, success);
  for (const auto& r : recs) put_u32le(out, encode_rtt_thousandths(r.rtt_ms));
  return out;
}

std::string encode_trace_payload(
    const std::vector<probe::TracerouteRecord>& recs,
    std::int64_t& first_time, std::int64_t& last_time) {
  std::string out;
  PairDict dict;
  std::vector<std::uint64_t> idx;
  std::vector<std::int64_t> times;
  std::vector<bool> paris, complete;
  idx.reserve(recs.size());
  times.reserve(recs.size());
  first_time = recs.empty() ? 0 : recs.front().time.seconds();
  last_time = first_time;
  for (const auto& r : recs) {
    idx.push_back(dict.intern(r));
    times.push_back(r.time.seconds());
    paris.push_back(r.method == probe::TracerouteMethod::kParis);
    complete.push_back(r.complete);
    first_time = std::min(first_time, r.time.seconds());
    last_time = std::max(last_time, r.time.seconds());
  }
  dict.encode(out);
  for (const auto i : idx) put_varint(out, i);
  encode_times(out, times);
  encode_bitmap(out, paris);
  encode_bitmap(out, complete);
  for (const auto& r : recs) put_addr(out, r.src_addr);
  for (const auto& r : recs) put_addr(out, r.dst_addr);
  for (const auto& r : recs) put_varint(out, r.hops.size());
  for (const auto& r : recs) {
    for (const auto& hop : r.hops) {
      if (!hop.addr) {
        out.push_back(0);  // unresponsive: no addr, no RTT (mirrors "*")
        continue;
      }
      put_addr(out, *hop.addr);
      put_u32le(out, encode_rtt_thousandths(hop.rtt_ms));
    }
  }
  return out;
}

// -- Block payload decoders --------------------------------------------------

bool decode_ping_payload(const unsigned char* payload, std::size_t size,
                         std::size_t record_count,
                         const PingRecordFn& on_ping,
                         BinReadCounters& counters) {
  ByteCursor cur(payload, size);
  std::vector<PairEntry> dict;
  std::vector<std::uint32_t> idx;
  std::vector<std::int64_t> times;
  std::vector<bool> success;
  if (!decode_pair_dict(cur, record_count, dict)) return false;
  if (!decode_pair_indices(cur, record_count, dict.size(), idx)) return false;
  if (!decode_times(cur, record_count, times)) return false;
  if (!decode_bitmap(cur, record_count, success)) return false;
  if (cur.remaining() != record_count * 4) return false;
  probe::PingRecord r;  // reused across the loop: the sink sees a const&
  for (std::size_t i = 0; i < record_count; ++i) {
    std::uint32_t raw = 0;
    cur.get_u32(raw);
    const auto rtt = decode_rtt_thousandths(raw);
    if (!rtt) {
      ++counters.records_rejected;
      continue;
    }
    r.src = dict[idx[i]].src;
    r.dst = dict[idx[i]].dst;
    r.family = dict[idx[i]].family;
    r.time = net::SimTime(times[i]);
    r.success = success[i];
    r.rtt_ms = *rtt;
    ++counters.records_read;
    on_ping(r);
  }
  return true;
}

bool decode_trace_payload(const unsigned char* payload, std::size_t size,
                          std::size_t record_count,
                          const TraceRecordFn& on_trace,
                          BinReadCounters& counters) {
  ByteCursor cur(payload, size);
  std::vector<PairEntry> dict;
  std::vector<std::uint32_t> idx;
  std::vector<std::int64_t> times;
  std::vector<bool> paris, complete;
  if (!decode_pair_dict(cur, record_count, dict)) return false;
  if (!decode_pair_indices(cur, record_count, dict.size(), idx)) return false;
  if (!decode_times(cur, record_count, times)) return false;
  if (!decode_bitmap(cur, record_count, paris)) return false;
  if (!decode_bitmap(cur, record_count, complete)) return false;
  std::vector<net::IPAddr> src_addrs(record_count), dst_addrs(record_count);
  for (auto& a : src_addrs) {
    if (!get_addr(cur, a)) return false;
  }
  for (auto& a : dst_addrs) {
    if (!get_addr(cur, a)) return false;
  }
  std::vector<std::uint32_t> hop_counts(record_count);
  for (auto& c : hop_counts) {
    std::uint64_t v = 0;
    if (!cur.get_varint(v) || v > kMaxHopsPerRecord) return false;
    c = static_cast<std::uint32_t>(v);
  }
  // One record reused across the loop (the sink sees a const&): clearing
  // the hop vector keeps its capacity, so a block's worth of records
  // costs at most one hop allocation instead of one per record.
  probe::TracerouteRecord r;
  for (std::size_t i = 0; i < record_count; ++i) {
    r.src = dict[idx[i]].src;
    r.dst = dict[idx[i]].dst;
    r.family = dict[idx[i]].family;
    r.time = net::SimTime(times[i]);
    r.method = paris[i] ? probe::TracerouteMethod::kParis
                        : probe::TracerouteMethod::kClassic;
    r.complete = complete[i];
    r.src_addr = src_addrs[i];
    r.dst_addr = dst_addrs[i];
    r.hops.clear();
    r.hops.reserve(hop_counts[i]);
    bool record_ok = true;
    for (std::uint32_t h = 0; h < hop_counts[i]; ++h) {
      std::uint8_t tag = 0;
      if (!cur.get_u8(tag)) return false;
      if (tag == 0) {  // unresponsive: no addr, no RTT (mirrors "*")
        r.hops.emplace_back();
        continue;
      }
      std::uint32_t raw = 0;
      net::IPAddr addr;
      if (tag == 4) {
        // Fused read of the v4 addr + RTT pair: one bounds check for the
        // whole row (the hop loop dominates whole-archive decode).
        unsigned char row[8];
        if (!cur.get_bytes(row, 8)) return false;
        addr = net::IPv4Addr(get_u32le(row));
        raw = get_u32le(row + 4);
      } else if (tag == 6) {
        net::IPv6Addr::Bytes b{};
        if (!cur.get_bytes(b.data(), b.size())) return false;
        if (!cur.get_u32(raw)) return false;
        addr = net::IPv6Addr(b);
      } else {
        return false;
      }
      const auto rtt = decode_rtt_thousandths(raw);
      if (!rtt) {
        record_ok = false;  // row fully consumed; reject the record
        continue;
      }
      auto& hop = r.hops.emplace_back();
      hop.addr = addr;
      hop.rtt_ms = *rtt;
    }
    if (!record_ok) {
      ++counters.records_rejected;
      continue;
    }
    ++counters.records_read;
    on_trace(r);
  }
  return cur.remaining() == 0;
}

// -- The block walk ----------------------------------------------------------
//
// block_at() is the only code that reads a block header field, and
// walk_blocks() is the only loop that chains block headers. Every public
// entry point is a policy over the walk (DESIGN.md section 10):
// resync-and-count (read_all, decode_block_range), strict-nullopt
// (index_blocks), stop-at-first-bad (recover_archive) and structural-only
// (scan_blocks, block_end).

std::uint32_t block_crc(const unsigned char* header,
                        const unsigned char* payload,
                        std::size_t payload_bytes) {
  std::uint32_t crc = crc32c(0, header + 4, 8);
  return crc32c(crc, payload, payload_bytes);
}

/// What sits at one offset of the block region.
struct BlockAt {
  enum class What : std::uint8_t {
    kBlock,      ///< plausible header, payload in bounds, CRC matches
    kBadCrc,     ///< plausible header, payload in bounds, CRC mismatch
    kBadHeader,  ///< no block magic, or implausible fixed fields
    kFooter,     ///< the footer magic: the block region ends here
    kTorn,       ///< the range ends inside the magic, header or payload
  };
  What what = What::kTorn;
  BlockKind kind = BlockKind::kPing;
  std::uint16_t record_count = 0;
  const unsigned char* payload = nullptr;
  std::size_t payload_bytes = 0;
  std::size_t end = 0;  ///< offset just past the payload
};

/// Parses the block at `pos` of the range [0, end). With `verify_crc`
/// off, every plausible in-bounds block reads as kBlock.
BlockAt block_at(const unsigned char* data, std::size_t end, std::size_t pos,
                 bool verify_crc) {
  using What = BlockAt::What;
  BlockAt b;
  if (pos + 4 > end) return b;
  const std::uint32_t magic = get_u32le(data + pos);
  if (magic != kBinBlockMagic) {
    b.what = magic == kBinFooterMagic ? What::kFooter : What::kBadHeader;
    return b;
  }
  if (pos + kBinBlockHeaderBytes > end) return b;
  const unsigned char* h = data + pos;
  b.record_count = get_u16le(h + 6);
  b.payload_bytes = get_u32le(h + 8);
  if (h[4] > 1 || b.record_count > kMaxBlockRecords ||
      b.payload_bytes > kMaxBlockPayloadBytes) {
    b.what = What::kBadHeader;  // payload_bytes cannot be trusted
    return b;
  }
  b.kind = static_cast<BlockKind>(h[4]);
  b.payload = h + kBinBlockHeaderBytes;
  b.end = pos + kBinBlockHeaderBytes + b.payload_bytes;
  if (b.end > end) return b;
  b.what = What::kBlock;
  if (verify_crc &&
      block_crc(h, b.payload, b.payload_bytes) != get_u32le(h + 12)) {
    b.what = What::kBadCrc;
    obs_crc_failures().inc();
  }
  return b;
}

enum class WalkEnd : std::uint8_t {
  kEof,     ///< the range ended at a block boundary or while resyncing
  kFooter,  ///< the footer magic at a block boundary
  kTorn,    ///< the range ends inside a block
  kBad,     ///< a bad block, with resync off
};

struct Walk {
  WalkEnd end = WalkEnd::kEof;
  std::size_t pos = 0;      ///< where the walk stopped
  std::size_t skipped = 0;  ///< bad blocks resynced past
};

/// Walks the blocks of [begin, end). `visit(pos, block)` sees each kBlock
/// and returns false when the block fails to decode, which makes it bad.
/// With `resync`, a bad block counts once in `skipped` and the walk goes
/// on past its payload, or — when its header cannot be trusted — at the
/// next block or footer magic. Without, the walk stops on it.
template <typename Visit>
Walk walk_blocks(const unsigned char* data, std::size_t begin,
                 std::size_t end, bool resync, bool verify_crc,
                 Visit&& visit) {
  using What = BlockAt::What;
  Walk w{.pos = begin};
  while (w.pos < end) {
    const BlockAt b = block_at(data, end, w.pos, verify_crc);
    if (b.what == What::kFooter || b.what == What::kTorn) {
      w.end = b.what == What::kFooter ? WalkEnd::kFooter : WalkEnd::kTorn;
      return w;
    }
    if (b.what == What::kBlock && visit(w.pos, b)) {
      w.pos = b.end;
      continue;
    }
    if (!resync) {
      w.end = WalkEnd::kBad;
      return w;
    }
    ++w.skipped;
    if (b.what != What::kBadHeader) {
      w.pos = b.end;
      continue;
    }
    std::size_t p = w.pos + 1;
    for (; p + 4 <= end; ++p) {
      const std::uint32_t m = get_u32le(data + p);
      if (m == kBinBlockMagic || m == kBinFooterMagic) break;
    }
    w.pos = p + 4 <= end ? p : end;
  }
  return w;
}

/// Decodes one kBlock into the callbacks; false when the block must be
/// counted corrupt.
bool decode_block(const BlockAt& b, const TraceRecordFn& on_trace,
                  const PingRecordFn& on_ping, BinReadCounters& counters) {
  const std::size_t before = counters.records_read;
  bool ok = b.payload_bytes == 0;  // an explicit empty block
  if (b.record_count > 0) {
    ok = b.kind == BlockKind::kPing
             ? decode_ping_payload(b.payload, b.payload_bytes,
                                   b.record_count, on_ping, counters)
             : decode_trace_payload(b.payload, b.payload_bytes,
                                    b.record_count, on_trace, counters);
  }
  if (counters.records_read > before) {
    obs_records_read().inc(counters.records_read - before);
  }
  if (ok) {
    ++counters.blocks_read;
    obs_blocks_read().inc();
  }
  return ok;
}

/// The resync-and-count policy: damaged blocks are counted and skipped,
/// and a torn tail is one more corrupt block plus the truncated flag.
WalkEnd decode_walk(const unsigned char* data, std::size_t begin,
                    std::size_t end, const TraceRecordFn& on_trace,
                    const PingRecordFn& on_ping, BinReadCounters& counters) {
  const Walk w = walk_blocks(
      data, begin, end, /*resync=*/true, /*verify_crc=*/true,
      [&](std::size_t, const BlockAt& b) {
        return decode_block(b, on_trace, on_ping, counters);
      });
  counters.corrupt_blocks += w.skipped;
  if (w.end == WalkEnd::kTorn) {
    ++counters.corrupt_blocks;
    counters.truncated = true;
  }
  return w.end;
}

/// Empty when the image starts with a supported file header.
std::string file_header_error(const unsigned char* data, std::size_t size) {
  if (size < kBinFileHeaderBytes || get_u32le(data) != kBinFileMagic) {
    return "not an .s2sb stream (bad magic)";
  }
  const std::uint16_t version = get_u16le(data + 4);
  if (version == 0 || version > kBinVersion) {
    return "unsupported .s2sb version " + std::to_string(version);
  }
  return {};
}

/// The footer entry of a CRC-valid block. Its [first, last] span comes
/// from the times column, which both payload kinds lead with (after the
/// dict and pair indices), so it covers every record in the block —
/// including ones a decoder rejects for a bad RTT — exactly as the
/// writer's min/max does. False when that column does not decode.
bool index_entry(std::size_t pos, const BlockAt& b, BlockIndexEntry& e) {
  e.offset = pos;
  e.record_count = b.record_count;
  e.kind = b.kind;
  e.first_time_s = 0;
  e.last_time_s = 0;
  if (b.record_count == 0) return true;
  ByteCursor cur(b.payload, b.payload_bytes);
  std::vector<PairEntry> dict;
  std::vector<std::uint32_t> idx;
  std::vector<std::int64_t> times;
  if (!decode_pair_dict(cur, b.record_count, dict)) return false;
  if (!decode_pair_indices(cur, b.record_count, dict.size(), idx)) {
    return false;
  }
  if (!decode_times(cur, b.record_count, times)) return false;
  const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
  e.first_time_s = *lo;
  e.last_time_s = *hi;
  return true;
}

/// The complete footer image (magic, entries, tail) for an index. Shared
/// by BinRecordWriter::finish() and recover_archive() so a rebuilt footer
/// is byte-identical to the one an uninterrupted writer would have sealed
/// the same blocks with.
std::string encode_footer(const std::vector<BlockIndexEntry>& index) {
  std::string footer;
  put_u32le(footer, kBinFooterMagic);
  std::string entries;
  for (const auto& e : index) {
    put_u64le(entries, e.offset);
    put_u64le(entries, static_cast<std::uint64_t>(e.first_time_s));
    put_u64le(entries, static_cast<std::uint64_t>(e.last_time_s));
    put_u32le(entries, e.record_count);
    entries.push_back(static_cast<char>(e.kind));
    entries.append(3, '\0');
  }
  footer += entries;
  put_u32le(footer, static_cast<std::uint32_t>(index.size()));
  put_u32le(footer, crc32c(entries.data(), entries.size()));
  put_u64le(footer, kBinEofMagic);
  return footer;
}

}  // namespace

std::optional<double> decode_rtt_thousandths(std::uint32_t v) {
  if (v == kInvalidRttThousandths ||
      v > static_cast<std::uint32_t>(probe::kMaxPlausibleRttMs * 1000.0)) {
    return std::nullopt;
  }
  return static_cast<double>(v) / 1000.0;
}

std::optional<std::vector<BlockRef>> scan_blocks(const void* data,
                                                 std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  if (!file_header_error(bytes, size).empty()) return std::nullopt;
  std::vector<BlockRef> out;
  walk_blocks(bytes, kBinFileHeaderBytes, size, /*resync=*/false,
              /*verify_crc=*/false, [&](std::size_t pos, const BlockAt& b) {
                out.push_back({pos, pos + kBinBlockHeaderBytes,
                               b.payload_bytes, b.record_count, b.kind});
                return true;
              });
  return out;
}

std::optional<std::size_t> block_end(const void* data, std::size_t size,
                                     std::size_t offset) {
  const BlockAt b = block_at(static_cast<const unsigned char*>(data), size,
                             offset, /*verify_crc=*/false);
  if (b.what != BlockAt::What::kBlock) return std::nullopt;
  return b.end;
}

std::optional<std::vector<BlockIndexEntry>> index_blocks(const void* data,
                                                         std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  if (!file_header_error(bytes, size).empty()) return std::nullopt;
  std::vector<BlockIndexEntry> out;
  const Walk w = walk_blocks(bytes, kBinFileHeaderBytes, size,
                             /*resync=*/false, /*verify_crc=*/true,
                             [&](std::size_t pos, const BlockAt& b) {
                               return index_entry(pos, b, out.emplace_back());
                             });
  if (w.end == WalkEnd::kTorn || w.end == WalkEnd::kBad) return std::nullopt;
  return out;
}

void decode_block_range(const void* data, std::size_t size,
                        std::size_t begin_offset, std::size_t end_offset,
                        const TraceRecordFn& on_trace,
                        const PingRecordFn& on_ping,
                        BinReadCounters& counters) {
  decode_walk(static_cast<const unsigned char*>(data), begin_offset,
              std::min(end_offset, size), on_trace, on_ping, counters);
}

// ---------------------------------------------------------------------------
// BinRecordWriter
// ---------------------------------------------------------------------------

BinRecordWriter::BinRecordWriter(std::ostream& out,
                                 const BinWriterConfig& config)
    : out_(out), config_(config) {
  config_.block_records = std::min(config_.block_records, kMaxBlockRecords);
  if (config_.block_records == 0) config_.block_records = 1;
  if (!config_.resume_index.empty() || config_.resume_offset > 0) {
    index_ = config_.resume_index;
    bytes_written_ = config_.resume_offset;
  }
  if (config_.write_header) {
    std::string header;
    put_u32le(header, kBinFileMagic);
    put_u16le(header, kBinVersion);
    put_u16le(header, 0);  // flags
    put_u64le(header, 0);  // reserved
    out_.write(header.data(), static_cast<std::streamsize>(header.size()));
    bytes_written_ += header.size();
  }
}

BinRecordWriter::~BinRecordWriter() {
  try {
    finish();
  } catch (...) {
    // A throwing ostream in a destructor must not terminate the program;
    // callers that care about write failures call finish() themselves.
  }
}

void BinRecordWriter::write(const probe::TracerouteRecord& record) {
  pending_traces_.push_back(record);
  ++written_;
  if (pending_traces_.size() >= config_.block_records) {
    flush_kind(BlockKind::kTraceroute);
  }
}

void BinRecordWriter::write(const probe::PingRecord& record) {
  pending_pings_.push_back(record);
  ++written_;
  if (pending_pings_.size() >= config_.block_records) {
    flush_kind(BlockKind::kPing);
  }
}

void BinRecordWriter::flush_kind(BlockKind kind) {
  std::int64_t first_time = 0, last_time = 0;
  std::string payload;
  std::size_t count = 0;
  if (kind == BlockKind::kTraceroute) {
    if (pending_traces_.empty()) return;
    count = pending_traces_.size();
    payload = encode_trace_payload(pending_traces_, first_time, last_time);
    pending_traces_.clear();
  } else {
    if (pending_pings_.empty()) return;
    count = pending_pings_.size();
    payload = encode_ping_payload(pending_pings_, first_time, last_time);
    pending_pings_.clear();
  }
  emit_block(kind, payload, count, first_time, last_time);
}

void BinRecordWriter::emit_block(BlockKind kind, const std::string& payload,
                                 std::size_t record_count,
                                 std::int64_t first_time,
                                 std::int64_t last_time) {
  std::string header;
  put_u32le(header, kBinBlockMagic);
  header.push_back(static_cast<char>(kind));
  header.push_back(0);  // reserved
  put_u16le(header, static_cast<std::uint16_t>(record_count));
  put_u32le(header, static_cast<std::uint32_t>(payload.size()));
  const std::uint32_t crc =
      block_crc(reinterpret_cast<const unsigned char*>(header.data()),
                reinterpret_cast<const unsigned char*>(payload.data()),
                payload.size());
  put_u32le(header, crc);

  BlockIndexEntry entry;
  entry.offset = bytes_written_;
  entry.first_time_s = first_time;
  entry.last_time_s = last_time;
  entry.record_count = static_cast<std::uint32_t>(record_count);
  entry.kind = kind;
  index_.push_back(entry);

  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  bytes_written_ += header.size() + payload.size();
  obs_blocks_written_.inc();
}

void BinRecordWriter::flush_block() {
  flush_kind(BlockKind::kTraceroute);
  flush_kind(BlockKind::kPing);
}

void BinRecordWriter::finish() {
  if (finished_) return;
  flush_block();
  finished_ = true;
  if (!config_.write_footer) return;
  const std::string footer = encode_footer(index_);
  out_.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  bytes_written_ += footer.size();
}

// ---------------------------------------------------------------------------
// AtomicArchiveWriter and recover_archive
// ---------------------------------------------------------------------------

AtomicArchiveWriter::AtomicArchiveWriter(const std::string& path)
    : path_(path), tmp_(path + ".tmp") {
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    error_ = tmp_ + ": open failed";
    return;
  }
  ok_ = true;
}

AtomicArchiveWriter::~AtomicArchiveWriter() {
  if (!committed_) abort();
}

void AtomicArchiveWriter::abort() noexcept {
  if (committed_) return;
  if (out_.is_open()) out_.close();
  std::remove(tmp_.c_str());
  ok_ = false;
}

bool AtomicArchiveWriter::commit(std::string& error) {
  if (committed_) return true;
  if (!ok_) {
    error = error_;
    return false;
  }
  out_.flush();
  if (!out_.good()) {
    error = tmp_ + ": write failed";
    abort();
    return false;
  }
  out_.close();
  // Durability order matters: the tmp bytes must be on disk before the
  // rename publishes them, and the rename must be in the directory before
  // the commit is claimed — otherwise a crash can surface the new name
  // with old (or no) bytes behind it.
  const int fd = ::open(tmp_.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    error = tmp_ + ": fsync failed";
    abort();
    return false;
  }
  ::close(fd);
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    error = "rename " + tmp_ + " -> " + path_ + " failed";
    abort();
    return false;
  }
  committed_ = true;
  const auto slash = path_.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path_.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {  // best effort: some filesystems refuse directory fsync
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

RecoverResult recover_archive(const std::string& path) {
  RecoverResult res;
  MmapFile file;
  if (!file.open(path)) {
    res.error = file.error();
    return res;
  }
  const auto* data = file.data();
  const std::size_t size = file.size();
  res.error = file_header_error(data, size);
  if (!res.error.empty()) return res;

  // Keep the longest valid prefix: every block CRC-valid and fully
  // decodable (null sinks — this pass only proves decodability and
  // recovers each block's encode-time span).
  std::vector<BlockIndexEntry> index;
  const std::size_t pos =
      walk_blocks(data, kBinFileHeaderBytes, size, /*resync=*/false,
                  /*verify_crc=*/true,
                  [&](std::size_t at, const BlockAt& b) {
                    BinReadCounters counters;
                    BlockIndexEntry entry;
                    if (!decode_block(b, [](const probe::TracerouteRecord&) {},
                                      [](const probe::PingRecord&) {},
                                      counters) ||
                        !index_entry(at, b, entry)) {
                      return false;
                    }
                    index.push_back(entry);
                    res.records_kept += b.record_count;
                    return true;
                  })
          .pos;
  res.blocks_kept = index.size();

  // Already sealed and intact? Leave the file untouched.
  const std::string footer = encode_footer(index);
  if (size == pos + footer.size() &&
      std::memcmp(data + pos, footer.data(), footer.size()) == 0) {
    res.ok = true;
    return res;
  }

  AtomicArchiveWriter out(path);
  if (!out.ok()) {
    res.error = out.error();
    return res;
  }
  auto& stream = out.stream();
  stream.write(reinterpret_cast<const char*>(data),
               static_cast<std::streamsize>(kBinFileHeaderBytes));
  stream.write(reinterpret_cast<const char*>(data) + kBinFileHeaderBytes,
               static_cast<std::streamsize>(pos - kBinFileHeaderBytes));
  stream.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  if (!out.commit(res.error)) return res;
  res.ok = true;
  res.repaired = true;
  res.bytes_dropped = size > pos ? size - pos : 0;
  return res;
}

// ---------------------------------------------------------------------------
// BinRecordMmapReader
// ---------------------------------------------------------------------------

BinRecordMmapReader::BinRecordMmapReader(const std::string& path) {
  if (!file_.open(path)) {
    error_ = file_.error();
    return;
  }
  obs_bytes_mapped().inc(file_.size());
  init(file_.data(), file_.size());
}

BinRecordMmapReader::BinRecordMmapReader(const void* data, std::size_t size) {
  init(data, size);
}

void BinRecordMmapReader::init(const void* data, std::size_t size) {
  data_ = static_cast<const unsigned char*>(data);
  size_ = size;
  error_ = file_header_error(data_, size_);
  ok_ = error_.empty();
  if (!ok_) return;
  version_ = get_u16le(data_ + 4);

  // Footer validation: fixed-width tail at EOF -> entry array -> magic.
  // Any inconsistency degrades to the sequential walk for reading, but
  // footer_status_ records the distinction between "never had a footer"
  // (kAbsent: no EOF seal at the tail, e.g. torn or footerless file) and
  // "had one that is damaged" (kInvalid) so tools can fail loudly.
  if (size_ < kBinFileHeaderBytes + 4 + kBinFooterTailBytes) return;
  const unsigned char* tail = data_ + size_ - kBinFooterTailBytes;
  if (get_u64le(tail + 8) != kBinEofMagic) return;
  footer_status_ = FooterStatus::kInvalid;  // seal present; prove validity
  const std::uint32_t entry_count = get_u32le(tail);
  const std::uint32_t entries_crc = get_u32le(tail + 4);
  const std::uint64_t entries_bytes =
      static_cast<std::uint64_t>(entry_count) * kBinFooterEntryBytes;
  if (entries_bytes + 4 + kBinFooterTailBytes + kBinFileHeaderBytes > size_) {
    return;
  }
  const unsigned char* entries = tail - entries_bytes;
  if (get_u32le(entries - 4) != kBinFooterMagic) return;
  if (crc32c(entries, entries_bytes) != entries_crc) return;
  const std::size_t footer_start =
      static_cast<std::size_t>(entries - 4 - data_);
  index_.reserve(entry_count);
  for (std::uint32_t i = 0; i < entry_count; ++i) {
    const unsigned char* e = entries + i * kBinFooterEntryBytes;
    BlockIndexEntry entry;
    entry.offset = get_u64le(e);
    entry.first_time_s = static_cast<std::int64_t>(get_u64le(e + 8));
    entry.last_time_s = static_cast<std::int64_t>(get_u64le(e + 16));
    entry.record_count = get_u32le(e + 24);
    // Offsets must strictly ascend: a CRC-consistent list that repeats
    // or reorders entries would decode a block twice or out of order.
    if (e[28] > 1 || entry.offset < kBinFileHeaderBytes ||
        entry.offset + kBinBlockHeaderBytes > footer_start ||
        (!index_.empty() && entry.offset <= index_.back().offset)) {
      index_.clear();  // poisoned index; fall back to sequential walk
      return;
    }
    entry.kind = static_cast<BlockKind>(e[28]);
    index_.push_back(entry);
  }
  footer_status_ = FooterStatus::kValid;
}

void BinRecordMmapReader::read_all_impl(const TraceRecordFn& on_trace,
                                        const PingRecordFn& on_ping) {
  if (!ok_ || read_range_impl(std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max(),
                              on_trace, on_ping)) {
    return;
  }
  const WalkEnd end = decode_walk(data_, kBinFileHeaderBytes, size_,
                                  on_trace, on_ping, counters_);
  // A footer begins where the blocks end, yet init() could not validate
  // one (that is why we walked): the footer was torn off or mangled.
  // Without this, truncating a file mid-footer would look like a clean
  // footerless archive.
  if (end == WalkEnd::kFooter && footer_status_ == FooterStatus::kAbsent) {
    footer_status_ = FooterStatus::kInvalid;
  }
}

bool BinRecordMmapReader::read_range_impl(std::int64_t t0_s, std::int64_t t1_s,
                                          const TraceRecordFn& on_trace,
                                          const PingRecordFn& on_ping) {
  if (!ok_ || index_.empty()) return false;
  for (const auto& entry : index_) {
    if (entry.last_time_s < t0_s || entry.first_time_s > t1_s) continue;
    const BlockAt b =
        block_at(data_, size_, entry.offset, /*verify_crc=*/true);
    if (b.what != BlockAt::What::kBlock ||
        !decode_block(b, on_trace, on_ping, counters_)) {
      ++counters_.corrupt_blocks;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Format sniffing and the interchangeable-ingest seam
// ---------------------------------------------------------------------------

namespace {

/// The sniff window is magic + version, not magic alone: a text file that
/// happens to begin with "S2SB" (a hostname column, say) almost certainly
/// continues with printable bytes, which decode as a little-endian version
/// far above 255 and send the file to the text arm. Versions in [1, 255]
/// are claimed as binary even beyond kBinVersion so that a future-format
/// file gets the reader's explicit "unsupported version" error instead of
/// being shredded line-by-line as text.
bool sniff_binary_header(const unsigned char* data, std::size_t size) {
  if (size < 6 || get_u32le(data) != kBinFileMagic) return false;
  const std::uint16_t version = get_u16le(data + 4);
  return version >= 1 && version <= 255;
}

/// The binary arm of both ingest seams.
IngestResult ingest_image(BinRecordMmapReader& reader,
                          const TraceRecordFn& on_trace,
                          const PingRecordFn& on_ping) {
  IngestResult result;
  result.binary = true;
  if (!reader.ok()) {
    result.ok = false;
    result.error = reader.error();
    return result;
  }
  reader.read_all(on_trace, on_ping);
  const BinReadCounters& c = reader.counters();
  result.records = c.records_read;
  result.blocks_read = c.blocks_read;
  result.corrupt_blocks = c.corrupt_blocks;
  result.records_rejected = c.records_rejected;
  result.truncated = c.truncated;
  result.footer = reader.footer_status();
  return result;
}

}  // namespace

bool is_binary_record_stream(std::istream& in) {
  const auto pos = in.tellg();
  unsigned char head[6];
  in.read(reinterpret_cast<char*>(head), sizeof(head));
  const bool binary =
      sniff_binary_header(head, static_cast<std::size_t>(in.gcount()));
  in.clear();
  in.seekg(pos);
  return binary;
}

bool is_binary_record_file(const std::string& path) {
  MmapFile probe;
  if (!probe.open(path)) return false;
  return sniff_binary_header(probe.data(), probe.size());
}

IngestResult read_records_auto(std::istream& in,
                               const TraceRecordFn& on_trace,
                               const PingRecordFn& on_ping) {
  if (is_binary_record_stream(in)) {
    const std::string image(std::istreambuf_iterator<char>(in), {});
    BinRecordMmapReader reader(image.data(), image.size());
    return ingest_image(reader, on_trace, on_ping);
  }
  IngestResult result;
  RecordReader reader(in);
  reader.read_all(
      [&](const probe::TracerouteRecord& r) {
        ++result.records;
        on_trace(r);
      },
      [&](const probe::PingRecord& r) {
        ++result.records;
        on_ping(r);
      });
  result.malformed_lines = reader.errors();
  return result;
}

IngestResult ingest_record_file(const std::string& path,
                                const TraceRecordFn& on_trace,
                                const PingRecordFn& on_ping,
                                bool prefer_mmap) {
  if (prefer_mmap && is_binary_record_file(path)) {
    BinRecordMmapReader reader(path);
    IngestResult result = ingest_image(reader, on_trace, on_ping);
    result.used_mmap = true;
    return result;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    IngestResult result;
    result.ok = false;
    result.error = path + ": open failed";
    return result;
  }
  return read_records_auto(in, on_trace, on_ping);
}

}  // namespace s2s::io
