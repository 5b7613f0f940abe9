#include "workload/tsv.hpp"

#include <algorithm>
#include <charconv>

#include "geom/wkt.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace sjc::workload {

namespace {

// Feature blocks per dataset_to_tsv call: enough for the shared pool to
// balance uneven geometry sizes, few enough that each block's scratch string
// is reused thousands of times. A constant, so the work split never depends
// on the host.
constexpr std::size_t kRenderBlocks = 64;

// Appends "<id>\t<wkt>" (no padding) to `out`.
void append_id_wkt(std::string& out, const geom::Feature& feature) {
  char buf[24];  // holds any 64-bit id
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), feature.id).ptr);
  out.push_back('\t');
  geom::append_wkt(out, feature.geometry);
}

// Builds the finished line from the unpadded `body` with one exact-size
// allocation.
std::string finish_line(std::string_view body, std::size_t pad_bytes) {
  std::string line;
  line.reserve(body.size() + (pad_bytes > 0 ? pad_bytes + 1 : 0));
  line.append(body);
  if (pad_bytes > 0) {
    line.push_back('\t');
    line.append(pad_bytes, 'a');
  }
  return line;
}

}  // namespace

std::string feature_to_tsv(const geom::Feature& feature, std::size_t pad_bytes) {
  std::string body;
  append_id_wkt(body, feature);
  return finish_line(body, pad_bytes);
}

geom::Feature feature_from_tsv(std::string_view line) {
  return feature_from_tsv_at(line, 0);
}

geom::Feature feature_from_tsv_at(std::string_view line, std::size_t field_offset) {
  std::string_view rest = line;
  for (std::size_t skip = 0; skip < field_offset; ++skip) {
    const auto tab = rest.find('\t');
    if (tab == std::string_view::npos) {
      throw ParseError("feature_from_tsv_at: too few fields in '" + std::string(line) +
                       "'");
    }
    rest = rest.substr(tab + 1);
  }
  const auto tab = rest.find('\t');
  if (tab == std::string_view::npos) {
    throw ParseError("feature_from_tsv: missing wkt field in '" + std::string(line) + "'");
  }
  geom::Feature feature;
  feature.id = parse_u64(rest.substr(0, tab));
  std::string_view wkt = rest.substr(tab + 1);
  // Trailing attribute fields (if any) end the WKT at the next tab.
  const auto wkt_end = wkt.find('\t');
  if (wkt_end != std::string_view::npos) wkt = wkt.substr(0, wkt_end);
  feature.geometry = geom::from_wkt(wkt);
  return feature;
}

std::optional<geom::Feature> try_feature_from_tsv(std::string_view line,
                                                  std::string* error) {
  return try_feature_from_tsv_at(line, 0, error);
}

std::optional<geom::Feature> try_feature_from_tsv_at(std::string_view line,
                                                     std::size_t field_offset,
                                                     std::string* error) {
  try {
    return feature_from_tsv_at(line, field_offset);
  } catch (const ParseError& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

std::vector<std::string> dataset_to_tsv(const Dataset& dataset, bool include_pad) {
  const auto& features = dataset.features();
  const std::size_t n = features.size();
  const std::size_t pad = include_pad ? dataset.attr_pad_bytes() : 0;
  std::vector<std::string> lines(n);
  // Lines are independent, so the output is the same at any thread count; a
  // call from inside a pool worker runs the blocks inline.
  const std::size_t blocks = std::min(kRenderBlocks, n);
  ThreadPool::shared().parallel_for(blocks, [&](std::size_t b) {
    std::string scratch;
    for (std::size_t i = n * b / blocks; i < n * (b + 1) / blocks; ++i) {
      scratch.clear();
      append_id_wkt(scratch, features[i]);
      lines[i] = finish_line(scratch, pad);
    }
  });
  return lines;
}

}  // namespace sjc::workload
