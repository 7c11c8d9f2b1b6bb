#include "tensor/io.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace sptd {

namespace {
constexpr char kBinMagic[8] = {'S', 'P', 'T', 'D', 'B', 'I', 'N', '1'};
}  // namespace

SparseTensor read_tns(std::istream& in, const TnsReadOptions& opts,
                      TnsReadStats* stats) {
  std::vector<std::vector<idx_t>> inds;
  std::vector<val_t> vals;
  dims_t dims;
  int order = -1;
  TnsReadStats local_stats;
  TnsReadStats& st = stats != nullptr ? *stats : local_stats;
  st = TnsReadStats{};

  // Strict mode throws at the offending line; lenient mode counts the line
  // as dropped (remembering the first diagnostic) and keeps reading.
  const auto bad = [&](const std::string& msg) {
    if (!opts.skip_bad_lines) {
      throw Error(msg);
    }
    if (st.dropped == 0) {
      st.first_error = msg;
    }
    ++st.dropped;
  };

  std::string line;
  nnz_t lineno = 0;
  std::vector<double> fields;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string at = " at line " + std::to_string(lineno);
    // strip comments
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    // tokenize
    fields.clear();
    const char* p = line.c_str();
    char* end = nullptr;
    bool tokens_ok = true;
    while (true) {
      while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
      if (*p == '\0') break;
      const double v = std::strtod(p, &end);
      if (end == p) {
        tokens_ok = false;
        break;
      }
      fields.push_back(v);
      p = end;
    }
    if (!tokens_ok) {
      bad("read_tns: bad token" + at);
      continue;
    }
    if (fields.empty()) continue;

    if (order < 0) {
      // Order is inferred from the first line that survives tokenization
      // (in lenient mode, the first line that parses at all).
      const int inferred = static_cast<int>(fields.size()) - 1;
      if (inferred < 1 || inferred > kMaxOrder) {
        bad("read_tns: unsupported order" + at);
        continue;
      }
      order = inferred;
      inds.resize(static_cast<std::size_t>(order));
      dims.assign(static_cast<std::size_t>(order), 0);
    }
    if (static_cast<int>(fields.size()) != order + 1) {
      bad("read_tns: expected " + std::to_string(order + 1) +
          " fields, got " + std::to_string(fields.size()) + at);
      continue;
    }
    bool line_ok = true;
    for (int m = 0; m < order && line_ok; ++m) {
      const double f = fields[static_cast<std::size_t>(m)];
      // NaN fails every comparison, so it lands in the out-of-range arm.
      if (!(f >= 1.0)) {
        bad("read_tns: index must be a positive integer (mode " +
            std::to_string(m + 1) + ")" + at);
        line_ok = false;
      } else if (f > static_cast<double>(kIdxMax)) {
        bad("read_tns: index overflows the index type (mode " +
            std::to_string(m + 1) + ")" + at);
        line_ok = false;
      } else if (f != std::floor(f)) {
        bad("read_tns: non-integer index (mode " + std::to_string(m + 1) +
            ")" + at);
        line_ok = false;
      }
    }
    if (line_ok && !std::isfinite(fields.back())) {
      bad("read_tns: non-finite value" + at);
      line_ok = false;
    }
    if (!line_ok) continue;
    for (int m = 0; m < order; ++m) {
      const double f = fields[static_cast<std::size_t>(m)];
      const auto i = static_cast<idx_t>(f) - 1;  // to 0-based
      inds[static_cast<std::size_t>(m)].push_back(i);
      auto& d = dims[static_cast<std::size_t>(m)];
      if (i + 1 > d) d = i + 1;
    }
    vals.push_back(static_cast<val_t>(fields.back()));
  }
  SPTD_CHECK(order > 0 && !vals.empty(),
             st.dropped > 0
                 ? "read_tns: no valid nonzeros (" +
                       std::to_string(st.dropped) +
                       " lines dropped; first: " + st.first_error + ")"
                 : "read_tns: no nonzeros found");

  SparseTensor t(dims);
  t.reserve(vals.size());
  std::array<idx_t, kMaxOrder> c{};
  for (nnz_t x = 0; x < vals.size(); ++x) {
    for (int m = 0; m < order; ++m) {
      c[static_cast<std::size_t>(m)] = inds[static_cast<std::size_t>(m)][x];
    }
    t.push_back({c.data(), static_cast<std::size_t>(order)}, vals[x]);
  }
  return t;
}

SparseTensor read_tns_file(const std::string& path,
                           const TnsReadOptions& opts, TnsReadStats* stats) {
  std::ifstream in(path);
  SPTD_CHECK(in.good(), "read_tns_file: cannot open " + path);
  return read_tns(in, opts, stats);
}

void write_tns(const SparseTensor& t, std::ostream& out) {
  std::ostringstream os;
  os.precision(std::numeric_limits<val_t>::max_digits10);
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    for (int m = 0; m < t.order(); ++m) {
      os << (t.ind(m)[x] + 1) << ' ';
    }
    os << t.vals()[x] << '\n';
  }
  out << os.str();
}

void write_tns_file(const SparseTensor& t, const std::string& path) {
  std::ofstream out(path);
  SPTD_CHECK(out.good(), "write_tns_file: cannot open " + path);
  write_tns(t, out);
  SPTD_CHECK(out.good(), "write_tns_file: write failed for " + path);
}

void write_bin_file(const SparseTensor& t, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  SPTD_CHECK(out.good(), "write_bin_file: cannot open " + path);
  out.write(kBinMagic, sizeof(kBinMagic));
  const auto order = static_cast<std::uint32_t>(t.order());
  const std::uint64_t nnz = t.nnz();
  out.write(reinterpret_cast<const char*>(&order), sizeof(order));
  out.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  for (int m = 0; m < t.order(); ++m) {
    const idx_t d = t.dim(m);
    out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  for (int m = 0; m < t.order(); ++m) {
    out.write(reinterpret_cast<const char*>(t.ind(m).data()),
              static_cast<std::streamsize>(nnz * sizeof(idx_t)));
  }
  out.write(reinterpret_cast<const char*>(t.vals().data()),
            static_cast<std::streamsize>(nnz * sizeof(val_t)));
  SPTD_CHECK(out.good(), "write_bin_file: write failed for " + path);
}

SparseTensor read_bin_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SPTD_CHECK(in.good(), "read_bin_file: cannot open " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  SPTD_CHECK(in.good() && std::memcmp(magic, kBinMagic, sizeof(magic)) == 0,
             "read_bin_file: bad magic in " + path);
  std::uint32_t order = 0;
  std::uint64_t nnz = 0;
  in.read(reinterpret_cast<char*>(&order), sizeof(order));
  in.read(reinterpret_cast<char*>(&nnz), sizeof(nnz));
  SPTD_CHECK(in.good() && order >= 1 && order <= kMaxOrder,
             "read_bin_file: bad header in " + path);
  dims_t dims(order);
  for (auto& d : dims) {
    in.read(reinterpret_cast<char*>(&d), sizeof(d));
  }
  SPTD_CHECK(in.good(), "read_bin_file: truncated header in " + path);
  // Size the arrays from the bytes actually present, never from the
  // header alone: a lying nnz must fail here, not in the allocator.
  const std::streamoff header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(header_end);
  const auto left = static_cast<std::uint64_t>(file_end - header_end);
  const std::uint64_t record = order * sizeof(idx_t) + sizeof(val_t);
  SPTD_CHECK(nnz <= left / record,
             "read_bin_file: header claims " + std::to_string(nnz) +
                 " nonzeros but " + path + " holds at most " +
                 std::to_string(left / record));
  SparseTensor t(dims);
  t.resize_nnz(nnz);
  for (std::uint32_t m = 0; m < order; ++m) {
    in.read(reinterpret_cast<char*>(t.ind(static_cast<int>(m)).data()),
            static_cast<std::streamsize>(nnz * sizeof(idx_t)));
  }
  in.read(reinterpret_cast<char*>(t.vals().data()),
          static_cast<std::streamsize>(nnz * sizeof(val_t)));
  SPTD_CHECK(in.good(), "read_bin_file: truncated file " + path);
  t.validate();
  return t;
}

}  // namespace sptd
