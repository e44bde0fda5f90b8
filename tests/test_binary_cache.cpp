// Binary `.spmvc` cache tests: the committed corrupt-cache corpus maps
// each damage class to its typed error, freshly regenerated damage
// proves corpus and writer cannot drift apart, round trips are
// byte-identical (arrays) and bit-identical (model predictions), and the
// cache-aware loader (core/matrix_source) degrades every cache failure
// — stale, truncated mid-write, injected faults — to a clean re-parse.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/matrix_source.hpp"
#include "model/method_a.hpp"
#include "sparse/binary_cache.hpp"
#include "sparse/gen/banded.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/matrix_market.hpp"
#include "util/fault.hpp"

namespace spmvcache {
namespace {

namespace fs = std::filesystem;

class BinaryCacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::path(testing::TempDir()) /
               ("spmv_cache_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::create_directories(dir_);
    }

    void TearDown() override {
        fault::disarm_all();
        fs::remove_all(dir_);
    }

    /// Writes `m` as both a .mtx source file and a .spmvc entry; returns
    /// the entry path.
    std::string write_entry(const CsrMatrix& m, const std::string& name) {
        const std::string mtx = (dir_ / (name + ".mtx")).string();
        write_matrix_market_file(mtx, m);
        const Result<SourceStamp> stamp = stat_source(mtx);
        EXPECT_TRUE(stamp.ok());
        const std::string entry = (dir_ / (name + ".spmvc")).string();
        const CsrView view(m);
        const Status written =
            write_binary_cache(entry, view, fingerprint_matrix(view),
                               compute_stats(view), mtx, stamp.value());
        EXPECT_TRUE(written.ok()) << written.error().render();
        return entry;
    }

    /// .mtx file for `m` only (no cache entry).
    std::string write_mtx(const CsrMatrix& m, const std::string& name) {
        const std::string mtx = (dir_ / (name + ".mtx")).string();
        write_matrix_market_file(mtx, m);
        return mtx;
    }

    fs::path dir_;
};

std::string corpus(const std::string& name) {
    return std::string(SPMVCACHE_TEST_DATA_DIR) + "/corrupt_cache/" + name;
}

// ---- Corrupt-cache corpus: one typed error per validation layer --------

TEST_F(BinaryCacheTest, CorpusBadMagicIsParseError) {
    const Result<MappedCsr> r = load_binary_cache(corpus("bad_magic.spmvc"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ParseError);
    EXPECT_NE(r.error().render().find("bad magic"), std::string::npos);
}

TEST_F(BinaryCacheTest, CorpusVersionBumpIsUnsupportedError) {
    const Result<MappedCsr> r =
        load_binary_cache(corpus("version_bump.spmvc"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::UnsupportedError);
    EXPECT_NE(r.error().render().find("version 99"), std::string::npos);
}

TEST_F(BinaryCacheTest, CorpusTruncatedSectionIsParseError) {
    const Result<MappedCsr> r =
        load_binary_cache(corpus("truncated_section.spmvc"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ParseError);
    EXPECT_NE(r.error().render().find("past end of file"),
              std::string::npos);
}

TEST_F(BinaryCacheTest, CorpusFlippedNnzIsValidationError) {
    // The header checksum was re-fixed after the flip: only the geometry
    // consistency layer can catch this one.
    const Result<MappedCsr> r =
        load_binary_cache(corpus("flipped_nnz.spmvc"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ValidationError);
    EXPECT_NE(r.error().render().find("disagrees with nnz"),
              std::string::npos);
}

TEST_F(BinaryCacheTest, CorpusSectionChecksumMismatchIsValidationError) {
    const Result<MappedCsr> r =
        load_binary_cache(corpus("checksum_mismatch.spmvc"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ValidationError);
    EXPECT_NE(r.error().render().find("checksum mismatch"),
              std::string::npos);
}

TEST_F(BinaryCacheTest, CorpusMisalignedOffsetIsValidationError) {
    const Result<MappedCsr> r =
        load_binary_cache(corpus("misaligned_offset.spmvc"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::ValidationError);
    EXPECT_NE(r.error().render().find("misaligned"), std::string::npos);
}

TEST_F(BinaryCacheTest, CorpusEntriesAlsoFailHeaderInspection) {
    // inspect reads only page 0, so damage visible in the header fails
    // the same way; section-level damage is invisible to it by design.
    EXPECT_EQ(inspect_binary_cache(corpus("bad_magic.spmvc")).error().code,
              ErrorCode::ParseError);
    EXPECT_EQ(
        inspect_binary_cache(corpus("version_bump.spmvc")).error().code,
        ErrorCode::UnsupportedError);
    EXPECT_TRUE(inspect_binary_cache(corpus("checksum_mismatch.spmvc")).ok());
}

// ---- Freshly regenerated damage: the corpus cannot drift ---------------

TEST_F(BinaryCacheTest, FreshDamageMatchesCorpusErrorCodes) {
    const CsrMatrix m = gen::stencil_2d_5pt(24, 24);
    const std::string entry = write_entry(m, "fresh");

    const auto damaged = [&](const std::string& name,
                             auto mutate) -> Result<MappedCsr> {
        const std::string copy = (dir_ / name).string();
        fs::copy_file(entry, copy, fs::copy_options::overwrite_existing);
        mutate(copy);
        return load_binary_cache(copy);
    };
    const auto poke = [](const std::string& path, std::uint64_t offset,
                         const void* bytes, std::size_t n) {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.is_open());
        f.seekp(static_cast<std::streamoff>(offset));
        f.write(static_cast<const char*>(bytes),
                static_cast<std::streamsize>(n));
    };

    // Bad magic.
    EXPECT_EQ(damaged("bad_magic.spmvc",
                      [&](const std::string& p) {
                          const char x = 'X';
                          poke(p, 0, &x, 1);
                      })
                  .error()
                  .code,
              ErrorCode::ParseError);

    // Version bump with a re-fixed checksum.
    EXPECT_EQ(damaged("version.spmvc",
                      [&](const std::string& p) {
                          const std::uint32_t v = 99;
                          poke(p, 8, &v, 4);
                          ASSERT_TRUE(
                              spmvc_testing::fixup_header_checksum(p).ok());
                      })
                  .error()
                  .code,
              ErrorCode::UnsupportedError);

    // Flipped nnz with a re-fixed checksum: geometry layer fires.
    EXPECT_EQ(damaged("nnz.spmvc",
                      [&](const std::string& p) {
                          std::int64_t nnz = m.nnz() + 1;
                          poke(p, spmvc_testing::header_nnz_offset(), &nnz,
                               8);
                          ASSERT_TRUE(
                              spmvc_testing::fixup_header_checksum(p).ok());
                      })
                  .error()
                  .code,
              ErrorCode::ValidationError);

    // Header checksum NOT fixed after damage: checksum layer fires first.
    EXPECT_EQ(damaged("stale_checksum.spmvc",
                      [&](const std::string& p) {
                          std::int64_t nnz = m.nnz() + 1;
                          poke(p, spmvc_testing::header_nnz_offset(), &nnz,
                               8);
                      })
                  .error()
                  .code,
              ErrorCode::ValidationError);

    // Mid-write crash: resize to half — rejected as truncated.
    EXPECT_EQ(damaged("half.spmvc",
                      [&](const std::string& p) {
                          fs::resize_file(p, fs::file_size(p) / 2);
                      })
                  .error()
                  .code,
              ErrorCode::ParseError);
}

// A header whose shape cannot be addressed: rows*cols fits int64, but x's
// byte count (8 per column) does not. Such an entry is refused before any
// section is trusted, like a .mtx declaring the same shape.
TEST_F(BinaryCacheTest, UnaddressableShapeIsValidationError) {
    const std::vector<std::int64_t> rowptr = {0, 1, 2};
    const std::vector<std::int64_t> colidx = {0, 1};
    const std::vector<double> values = {1.0, 2.0};
    const CsrView64 view(2, 2305843009213694052, rowptr, colidx, values);
    const std::string entry = (dir_ / "unaddressable.spmvc").string();
    const Status written =
        write_binary_cache(entry, view, fingerprint_matrix(view),
                           MatrixStats{}, "generated://unaddressable",
                           SourceStamp{});
    ASSERT_TRUE(written.ok()) << written.error().render();
    const Result<MappedCsr> loaded = load_binary_cache(entry);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code, ErrorCode::ValidationError);
    EXPECT_NE(loaded.error().message.find("unaddressable shape"),
              std::string::npos)
        << loaded.error().render();
}

// ---- Round trips -------------------------------------------------------

TEST_F(BinaryCacheTest, RoundTripIsByteIdenticalAcrossGenerators) {
    const std::vector<CsrMatrix> suite = {
        gen::stencil_2d_5pt(20, 20),
        gen::banded(300, 9, 2, 7),
        gen::random_uniform(200, 200, 12, 11),
        gen::random_variable_rows(150, 150, 6.0, 2.0, 5),
    };
    int index = 0;
    for (const CsrMatrix& m : suite) {
        const std::string entry =
            write_entry(m, "rt" + std::to_string(index++));
        Result<MappedCsr> loaded = load_binary_cache(entry);
        ASSERT_TRUE(loaded.ok()) << loaded.error().render();
        ASSERT_EQ(loaded.value().view().index_width(), IndexWidth::W32);
        const CsrView v = *loaded.value().view().as32();
        const CsrView orig(m);
        ASSERT_EQ(v.rows(), orig.rows());
        ASSERT_EQ(v.cols(), orig.cols());
        ASSERT_EQ(v.nnz(), orig.nnz());
        EXPECT_EQ(std::memcmp(v.rowptr().data(), orig.rowptr().data(),
                              orig.rowptr_bytes()),
                  0);
        EXPECT_EQ(std::memcmp(v.colidx().data(), orig.colidx().data(),
                              orig.colidx_bytes()),
                  0);
        EXPECT_EQ(std::memcmp(v.values().data(), orig.values().data(),
                              orig.values_bytes()),
                  0);
        EXPECT_EQ(loaded.value().info().fingerprint,
                  fingerprint_matrix(orig));
    }
}

TEST_F(BinaryCacheTest, MappedPredictionsAreBitIdenticalToOwned) {
    const CsrMatrix m = gen::banded(400, 11, 2, 3);
    const std::string entry = write_entry(m, "model");
    Result<MappedCsr> loaded = load_binary_cache(entry);
    ASSERT_TRUE(loaded.ok());

    ModelOptions options;
    options.threads = 4;
    options.l2_way_options = {2, 5};
    options.predict_l1 = false;
    const ModelResult owned = run_method_a(CsrView(m), options);
    const ModelResult mapped = run_method_a(loaded.value().view(), options);
    ASSERT_EQ(owned.configs.size(), mapped.configs.size());
    for (std::size_t i = 0; i < owned.configs.size(); ++i) {
        EXPECT_EQ(owned.configs[i].l2_sector_ways,
                  mapped.configs[i].l2_sector_ways);
        // Bit-identical, not approximately equal: the arrays are the
        // same bytes, so the model must walk the same path.
        EXPECT_EQ(owned.configs[i].l2_misses, mapped.configs[i].l2_misses);
        EXPECT_EQ(owned.configs[i].l2_x_misses,
                  mapped.configs[i].l2_x_misses);
    }
}

TEST_F(BinaryCacheTest, StampMismatchIsCacheStale) {
    const CsrMatrix m = gen::stencil_2d_5pt(16, 16);
    const std::string entry = write_entry(m, "stale");
    SourceStamp changed;
    changed.size = 1;
    changed.mtime_ns = 2;
    const Result<MappedCsr> r = load_binary_cache(entry, &changed);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::CacheStale);
    // Without an expected stamp the same entry loads fine.
    EXPECT_TRUE(load_binary_cache(entry).ok());
}

TEST_F(BinaryCacheTest, InspectReportsHeaderWithoutTouchingSections) {
    const CsrMatrix m = gen::stencil_2d_5pt(16, 16);
    const std::string entry = write_entry(m, "inspect");
    const Result<SpmvcInfo> info = inspect_binary_cache(entry);
    ASSERT_TRUE(info.ok()) << info.error().render();
    EXPECT_EQ(info.value().format_version, kSpmvcFormatVersion);
    EXPECT_EQ(info.value().rows, m.rows());
    EXPECT_EQ(info.value().nnz, m.nnz());
    EXPECT_EQ(info.value().fingerprint, fingerprint_matrix(CsrView(m)));
    EXPECT_NE(info.value().source_path.find("inspect.mtx"),
              std::string::npos);
    EXPECT_EQ(info.value().file_bytes, fs::file_size(entry));
}

// ---- The cache-aware loader: every cache failure degrades to a parse ---

TEST_F(BinaryCacheTest, HandleParsesThenHitsThenDetectsStaleness) {
    const CsrMatrix m = gen::stencil_2d_5pt(18, 18);
    MatrixSource source;
    source.path = write_mtx(m, "flow");
    source.cache_dir = (dir_ / "cache").string();

    Result<LoadedMatrix> first = load_matrix_handle(source);
    ASSERT_TRUE(first.ok()) << first.error().render();
    EXPECT_EQ(first.value().origin, LoadOrigin::Parsed);
    EXPECT_TRUE(first.value().cache_written);

    Result<LoadedMatrix> second = load_matrix_handle(source);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value().origin, LoadOrigin::CacheHit);
    ASSERT_EQ(second.value().view.index_width(),
              first.value().view.index_width());
    ASSERT_EQ(second.value().view.index_width(), IndexWidth::W32);
    EXPECT_EQ(std::memcmp(second.value().view.as32()->colidx().data(),
                          first.value().view.as32()->colidx().data(),
                          first.value().view.colidx_bytes()),
              0);
    EXPECT_EQ(second.value().fingerprint, first.value().fingerprint);

    // Rewrite the source (different size): the entry must go stale.
    {
        std::ofstream out(source.path, std::ios::app);
        out << "% trailing comment changes size and mtime\n";
    }
    Result<LoadedMatrix> third = load_matrix_handle(source);
    ASSERT_TRUE(third.ok());
    EXPECT_EQ(third.value().origin, LoadOrigin::Parsed);
    EXPECT_TRUE(third.value().cache_written);  // refreshed
    Result<LoadedMatrix> fourth = load_matrix_handle(source);
    ASSERT_TRUE(fourth.ok());
    EXPECT_EQ(fourth.value().origin, LoadOrigin::CacheHit);
}

TEST_F(BinaryCacheTest, TruncatedEntryIsRejectedAndReparsed) {
    const CsrMatrix m = gen::stencil_2d_5pt(18, 18);
    MatrixSource source;
    source.path = write_mtx(m, "crash");
    source.cache_dir = (dir_ / "cache").string();
    ASSERT_TRUE(load_matrix_handle(source).ok());

    // Simulate a crash mid-write that somehow landed on the final name:
    // chop the entry mid-section. The loader must reject it and the
    // handle must fall back to a parse that rewrites the entry.
    const std::string entry =
        spmvc_cache_path(source.cache_dir, source.path, false);
    fs::resize_file(entry, fs::file_size(entry) / 2);
    EXPECT_EQ(load_binary_cache(entry).error().code, ErrorCode::ParseError);

    Result<LoadedMatrix> reparsed = load_matrix_handle(source);
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed.value().origin, LoadOrigin::Parsed);
    EXPECT_TRUE(reparsed.value().cache_written);
    EXPECT_EQ(load_matrix_handle(source).value().origin,
              LoadOrigin::CacheHit);
}

TEST_F(BinaryCacheTest, StrayTmpFileIsIgnoredByLoads) {
    const CsrMatrix m = gen::stencil_2d_5pt(14, 14);
    MatrixSource source;
    source.path = write_mtx(m, "tmp");
    source.cache_dir = (dir_ / "cache").string();
    ASSERT_TRUE(load_matrix_handle(source).ok());
    const std::string entry =
        spmvc_cache_path(source.cache_dir, source.path, false);
    {
        // An aborted atomic write leaves <entry>.tmp; the loader only
        // ever opens the final name.
        std::ofstream junk(entry + ".tmp", std::ios::binary);
        junk << "garbage";
    }
    EXPECT_EQ(load_matrix_handle(source).value().origin,
              LoadOrigin::CacheHit);
}

TEST_F(BinaryCacheTest, WriteFaultDegradesToUncachedParse) {
    const CsrMatrix m = gen::stencil_2d_5pt(14, 14);
    MatrixSource source;
    source.path = write_mtx(m, "wfault");
    source.cache_dir = (dir_ / "cache").string();
    {
        fault::ScopedFault f("cache.write");
        Result<LoadedMatrix> loaded = load_matrix_handle(source);
        ASSERT_TRUE(loaded.ok()) << loaded.error().render();
        EXPECT_EQ(loaded.value().origin, LoadOrigin::Parsed);
        EXPECT_FALSE(loaded.value().cache_written);
        const std::string entry =
            spmvc_cache_path(source.cache_dir, source.path, false);
        EXPECT_FALSE(fs::exists(entry));
    }
    // Fault gone: the next load writes the entry it could not before.
    EXPECT_TRUE(load_matrix_handle(source).value().cache_written);
}

TEST_F(BinaryCacheTest, MapFaultDegradesToReparse) {
    const CsrMatrix m = gen::stencil_2d_5pt(14, 14);
    MatrixSource source;
    source.path = write_mtx(m, "mfault");
    source.cache_dir = (dir_ / "cache").string();
    ASSERT_TRUE(load_matrix_handle(source).ok());
    fault::ScopedFault f("cache.map", {.once = false});
    Result<LoadedMatrix> loaded = load_matrix_handle(source);
    ASSERT_TRUE(loaded.ok()) << loaded.error().render();
    EXPECT_EQ(loaded.value().origin, LoadOrigin::Parsed);
    // Direct loads report the injected fault as a typed error.
    const std::string entry =
        spmvc_cache_path(source.cache_dir, source.path, false);
    EXPECT_EQ(load_binary_cache(entry).error().code,
              ErrorCode::FaultInjected);
}

TEST_F(BinaryCacheTest, StrictAndLenientGetDistinctEntries) {
    const std::string lenient = spmvc_cache_path("/tmp/c", "a/b.mtx", false);
    const std::string strict = spmvc_cache_path("/tmp/c", "a/b.mtx", true);
    EXPECT_NE(lenient, strict);
    EXPECT_EQ(lenient, spmvc_cache_path("/tmp/c", "a/b.mtx", false));
    EXPECT_NE(spmvc_cache_path("/tmp/c", "a/b.mtx", false),
              spmvc_cache_path("/tmp/c", "a/c.mtx", false));
}

// ---- SourceCache: the serve daemon's in-memory dedupe ------------------

TEST_F(BinaryCacheTest, SourceCacheDedupesRepeatLoads) {
    const CsrMatrix m = gen::stencil_2d_5pt(16, 16);
    MatrixSource source;
    source.path = write_mtx(m, "memo");

    SourceCache memo(4);
    ASSERT_TRUE(memo.get(source).ok());
    ASSERT_TRUE(memo.get(source).ok());
    ASSERT_TRUE(memo.get(source).ok());
    EXPECT_EQ(memo.stats().loads, 1u);
    EXPECT_EQ(memo.stats().hits, 2u);
    EXPECT_EQ(memo.stats().entries, 1u);

    // A deleted source makes the hit path report the real error on the
    // reload instead of serving stale bytes.
    fs::remove(source.path);
    EXPECT_FALSE(memo.get(source).ok());
}

TEST_F(BinaryCacheTest, SourceCacheRevalidatesOnSourceChange) {
    const CsrMatrix m = gen::stencil_2d_5pt(16, 16);
    MatrixSource source;
    source.path = write_mtx(m, "reval");
    SourceCache memo(4);
    const Result<LoadedMatrix> first = memo.get(source);
    ASSERT_TRUE(first.ok());
    {
        std::ofstream out(source.path, std::ios::app);
        out << "% appended\n";
    }
    const Result<LoadedMatrix> second = memo.get(source);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(memo.stats().loads, 2u);  // change forced a reload
    EXPECT_EQ(second.value().fingerprint, first.value().fingerprint);
}

TEST_F(BinaryCacheTest, SourceCacheCachesGeneratedSources) {
    MatrixSource source;
    source.gen_spec = "stencil2d5:16";
    SourceCache memo(4);
    ASSERT_TRUE(memo.get(source).ok());
    ASSERT_TRUE(memo.get(source).ok());
    EXPECT_EQ(memo.stats().loads, 1u);
    EXPECT_EQ(memo.stats().hits, 1u);
    EXPECT_EQ(memo.get(source).value().origin, LoadOrigin::Generated);
}

}  // namespace
}  // namespace spmvcache
