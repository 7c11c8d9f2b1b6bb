// Tests for src/cpd/model_io: Kruskal model persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/error.hpp"
#include "cpd/cpals.hpp"
#include "cpd/model_io.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

KruskalModel sample_model(std::uint64_t seed = 1) {
  Rng rng(seed);
  KruskalModel m;
  m.lambda = {1.5, 0.25, 3.75};
  m.factors.push_back(la::Matrix::random(7, 3, rng));
  m.factors.push_back(la::Matrix::random(5, 3, rng));
  m.factors.push_back(la::Matrix::random(9, 3, rng));
  return m;
}

TEST(ModelIo, RoundTripPreservesEverything) {
  const KruskalModel m = sample_model();
  std::ostringstream out;
  write_model(m, out);
  std::istringstream in(out.str());
  const KruskalModel back = read_model(in);
  ASSERT_EQ(back.order(), m.order());
  ASSERT_EQ(back.rank(), m.rank());
  for (idx_t r = 0; r < m.rank(); ++r) {
    EXPECT_DOUBLE_EQ(back.lambda[r], m.lambda[r]);
  }
  for (int mode = 0; mode < m.order(); ++mode) {
    EXPECT_EQ(back.factors[static_cast<std::size_t>(mode)].max_abs_diff(
                  m.factors[static_cast<std::size_t>(mode)]),
              0.0);
  }
}

TEST(ModelIo, FileRoundTrip) {
  const KruskalModel m = sample_model(2);
  const std::string path =
      (std::filesystem::temp_directory_path() / "sptd_model.txt").string();
  write_model_file(m, path);
  const KruskalModel back = read_model_file(path);
  std::remove(path.c_str());
  const idx_t c[] = {3, 2, 4};
  EXPECT_DOUBLE_EQ(back.value_at(c), m.value_at(c));
}

TEST(ModelIo, LoadedModelPredictsLikeOriginal) {
  // Decompose, save, load, and verify the loaded model reproduces the fit.
  SparseTensor x = generate_synthetic(
      {.dims = {20, 18, 16}, .nnz = 800, .seed = 3});
  const SparseTensor original = x;
  CpalsOptions opts;
  opts.rank = 4;
  opts.max_iterations = 5;
  opts.tolerance = 0.0;
  const CpalsResult r = cp_als(x, opts);

  std::ostringstream out;
  write_model(r.model, out);
  std::istringstream in(out.str());
  const KruskalModel loaded = read_model(in);
  EXPECT_NEAR(loaded.fit_to(original, 1), r.model.fit_to(original, 1),
              1e-12);
}

TEST(ModelIo, RejectsBadHeader) {
  std::istringstream in("not-a-model 1\n");
  EXPECT_THROW(read_model(in), Error);
}

TEST(ModelIo, RejectsWrongVersion) {
  std::istringstream in("sptd-kruskal 99\norder 2 rank 1\n");
  EXPECT_THROW(read_model(in), Error);
}

TEST(ModelIo, RejectsTruncatedFactors) {
  const KruskalModel m = sample_model(4);
  std::ostringstream out;
  write_model(m, out);
  std::string text = out.str();
  text.resize(text.size() / 2);  // cut mid-factor
  std::istringstream in(text);
  EXPECT_THROW(read_model(in), Error);
}

TEST(ModelIo, RejectsRankMismatchInFactor) {
  std::istringstream in(
      "sptd-kruskal 1\n"
      "order 1 rank 2\n"
      "lambda\n1 1\n"
      "factor 0 2 3\n"  // cols != rank
      "1 2 3\n4 5 6\n");
  EXPECT_THROW(read_model(in), Error);
}

TEST(ModelIo, HugeHeaderSizesFailWithoutAllocating) {
  // Sizes come from the tokens present, never from the header: a short
  // v1 file claiming rank 4e9 (a 32 GB lambda) or 4e9 factor rows must
  // fail at the first missing value.
  std::istringstream huge_rank(
      "sptd-kruskal 1\n"
      "order 1 rank 4000000000\n"
      "lambda\n1 1\n");
  EXPECT_THROW(read_model(huge_rank), Error);
  std::istringstream huge_rows(
      "sptd-kruskal 1\n"
      "order 1 rank 2\n"
      "lambda\n1 1\n"
      "factor 0 4000000000 2\n"
      "1 2\n3 4\n");
  EXPECT_THROW(read_model(huge_rows), Error);
}

TEST(ModelIo, MissingFileThrows) {
  EXPECT_THROW(read_model_file("/nonexistent/model.txt"), Error);
}

TEST(ModelIo, V1LegacyFormatStillReadable) {
  // Models written before the checksummed v2 header must keep loading.
  std::istringstream in(
      "sptd-kruskal 1\n"
      "order 2 rank 2\n"
      "lambda\n1.5 0.5\n"
      "factor 0 2 2\n1 2\n3 4\n"
      "factor 1 3 2\n5 6\n7 8\n9 10\n");
  const KruskalModel m = read_model(in);
  ASSERT_EQ(m.order(), 2);
  ASSERT_EQ(m.rank(), 2);
  EXPECT_DOUBLE_EQ(m.lambda[0], 1.5);
  EXPECT_DOUBLE_EQ(m.factors[1](2, 1), 10.0);
}

TEST(ModelIo, WritesVersionedChecksummedHeader) {
  const KruskalModel m = sample_model(5);
  const std::string text = serialize_model(m);
  EXPECT_EQ(text.rfind("sptd-kruskal 2\nchecksum ", 0), 0u);
}

TEST(ModelIo, RejectsChecksumMismatch) {
  const KruskalModel m = sample_model(6);
  std::string text = serialize_model(m);
  // Corrupt one payload digit after the header lines.
  const std::size_t pos = text.find('\n', text.find("checksum")) + 10;
  ASSERT_LT(pos, text.size());
  text[pos] = (text[pos] == '7') ? '8' : '7';
  std::istringstream in(text);
  try {
    (void)read_model(in);
    FAIL() << "corrupt model was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos);
  }
}

TEST(ModelIo, RejectsTruncatedV2Payload) {
  const KruskalModel m = sample_model(7);
  std::string text = serialize_model(m);
  text.resize(text.size() - text.size() / 4);  // drop the tail
  std::istringstream in(text);
  EXPECT_THROW(read_model(in), Error);
}

}  // namespace
}  // namespace sptd
