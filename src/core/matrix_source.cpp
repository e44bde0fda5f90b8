#include "core/matrix_source.hpp"

#include <algorithm>
#include <filesystem>
#include <string_view>
#include <utility>

#include "sparse/gen/banded.hpp"
#include "sparse/gen/block.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/matrix_market.hpp"
#include "util/cli.hpp"

namespace spmvcache {

namespace {

namespace fs = std::filesystem;

/// Parses the .mtx text of a file source with parse_jobs workers (0 = all
/// cores) at the width source.index_width resolves to.
[[nodiscard]] Result<AnyCsrMatrix> parse_file_source(
    const MatrixSource& source) {
    MmReadOptions options;
    options.strict = source.strict_parse;
    options.index_width = source.index_width;
    options.jobs =
        static_cast<std::size_t>(std::max<std::int64_t>(source.parse_jobs, 0));
    return try_read_matrix_market_any_file(source.path, options);
}

/// Generators always assemble narrow (their shapes are representable by
/// construction); a forced wide request widens the arrays afterwards.
[[nodiscard]] Result<AnyCsrMatrix> generated_matrix_any(
    const MatrixSource& source) {
    Result<CsrMatrix> narrow = generated_matrix(source.gen_spec, source.seed);
    if (!narrow.ok()) return std::move(narrow).to_error();
    if (source.index_width == IndexWidthChoice::W64)
        return AnyCsrMatrix(convert_csr_width<Idx64>(narrow.value()));
    return AnyCsrMatrix(std::move(narrow).value());
}

/// Wraps a parsed/generated matrix into a handle, computing the derived
/// structure summaries once.
LoadedMatrix make_owned_handle(AnyCsrMatrix matrix, LoadOrigin origin) {
    LoadedMatrix loaded;
    loaded.owned = std::make_shared<const AnyCsrMatrix>(std::move(matrix));
    loaded.view = loaded.owned->view();
    loaded.fingerprint = fingerprint_matrix(loaded.view);
    loaded.stats = compute_stats(loaded.view);
    loaded.origin = origin;
    return loaded;
}

}  // namespace

std::string MatrixSource::canonical_key() const {
    std::string key;
    if (!path.empty()) {
        key = "file:" + path;
    } else {
        key = "gen:" + gen_spec + "@" + std::to_string(seed);
    }
    key += "|strict=";
    key += strict_parse ? '1' : '0';
    key += "|w=";
    key += to_string(index_width);
    return key;
}

const char* to_string(LoadOrigin origin) noexcept {
    switch (origin) {
        case LoadOrigin::Generated: return "generated";
        case LoadOrigin::Parsed: return "parsed";
        case LoadOrigin::CacheHit: return "cache-hit";
    }
    return "unknown";
}

[[nodiscard]] Result<CsrMatrix> generated_matrix(const std::string& spec,
                                   std::uint64_t seed) {
    const auto colon = spec.find(':');
    const std::string family =
        colon == std::string::npos ? spec : spec.substr(0, colon);
    std::int64_t n = 512;
    if (colon != std::string::npos) {
        Result<std::int64_t> parsed =
            parse_int(std::string_view(spec).substr(colon + 1));
        if (!parsed.ok())
            return std::move(parsed)
                .wrap("parsing generator size in '" + spec + "'")
                .to_error();
        n = parsed.value();
    }
    if (n <= 0)
        return Error(ErrorCode::ValidationError,
                     "generator size must be positive in '" + spec + "'");
    if (family == "stencil2d5") return gen::stencil_2d_5pt(n, n);
    if (family == "stencil3d27") return gen::stencil_3d_27pt(n, n, n);
    if (family == "banded") return gen::banded(n, 16, n / 256 + 1, seed);
    if (family == "circuit")
        return gen::circuit(n, 3.0, n / 64 + 1, 0.05, seed);
    if (family == "random") {
        // Every row holds 24 distinct columns, so there must be 24.
        constexpr std::int64_t kRowNnz = 24;
        if (n < kRowNnz)
            return Error(ErrorCode::ValidationError,
                         "random needs a size of at least " +
                             std::to_string(kRowNnz) +
                             " (its nonzeros per row) in '" + spec + "'");
        return gen::random_uniform(n, n, kRowNnz, seed);
    }
    if (family == "randomcv")
        return gen::random_variable_rows(n, n, 8.0, 2.0, seed);
    if (family == "blockfem")
        return gen::block_fem(std::max<std::int64_t>(2, n / 8), 8, 6,
                              std::max<std::int64_t>(6, n / 64), seed);
    return Error(ErrorCode::ValidationError,
                 "unknown generator family: " + family);
}

std::string spmvc_cache_path(const std::string& cache_dir,
                             const std::string& source_path,
                             bool strict_parse) {
    std::error_code ec;
    fs::path abs = fs::absolute(source_path, ec);
    if (ec) abs = source_path;
    const std::string key = abs.lexically_normal().string();
    std::uint64_t h = 0;
    for (const char ch : key)
        h = mix64(h ^ static_cast<unsigned char>(ch));
    static constexpr char kHex[] = "0123456789abcdef";
    std::string digest;
    digest.reserve(16);
    for (int shift = 60; shift >= 0; shift -= 4)
        digest += kHex[(h >> shift) & 0xF];
    std::string stem = fs::path(source_path).stem().string();
    if (stem.empty()) stem = "matrix";
    return (fs::path(cache_dir) /
            (stem + "-" + digest + (strict_parse ? "s" : "") + ".spmvc"))
        .string();
}

[[nodiscard]] Result<LoadedMatrix> load_matrix_handle(
    const MatrixSource& source) {
    if (source.empty())
        return Error(ErrorCode::ValidationError,
                     "request names no matrix (need a path or a gen spec)");
    if (!source.gen_spec.empty()) {
        Result<AnyCsrMatrix> generated = generated_matrix_any(source);
        if (!generated.ok()) return std::move(generated).to_error();
        return make_owned_handle(std::move(generated).value(),
                                 LoadOrigin::Generated);
    }

    // File source. With a cache dir, try the mmap fast path first; every
    // cache-side failure (missing entry, stale stamp, version bump,
    // corruption) degrades to a parse that then refreshes the entry.
    SourceStamp stamp{};
    bool have_stamp = false;
    std::string cache_path;
    if (!source.cache_dir.empty()) {
        cache_path = spmvc_cache_path(source.cache_dir, source.path,
                                      source.strict_parse);
        Result<SourceStamp> live = stat_source(source.path);
        if (live.ok()) {
            stamp = live.value();
            have_stamp = true;
            Result<MappedCsr> mapped = load_binary_cache(
                cache_path, &stamp, source.index_width);
            if (mapped.ok()) {
                LoadedMatrix loaded;
                loaded.mapped = std::make_shared<const MappedCsr>(
                    std::move(mapped).value());
                loaded.view = loaded.mapped->view();
                loaded.fingerprint = loaded.mapped->info().fingerprint;
                loaded.stats = loaded.mapped->info().stats;
                loaded.origin = LoadOrigin::CacheHit;
                return loaded;
            }
        }
        // !live.ok(): the source itself is unreadable; fall through so the
        // parser reports the canonical "cannot open" error.
    }

    Result<AnyCsrMatrix> parsed = parse_file_source(source);
    if (!parsed.ok()) return std::move(parsed).to_error();
    LoadedMatrix loaded =
        make_owned_handle(std::move(parsed).value(), LoadOrigin::Parsed);

    if (!cache_path.empty() && have_stamp) {
        std::error_code ec;
        fs::create_directories(source.cache_dir, ec);
        // Best effort: a read-only cache dir or full disk must not fail
        // the load — the parse already succeeded.
        if (!ec) {
            const Status written = write_binary_cache(
                cache_path, loaded.view, loaded.fingerprint, loaded.stats,
                source.path, stamp);
            loaded.cache_written = written.ok();
        }
    }
    return loaded;
}

[[nodiscard]] Result<LoadedMatrix> SourceCache::get(
    const MatrixSource& source) {
    const std::string key = source.canonical_key();
    const bool file_backed = !source.path.empty();

    SourceStamp live{};
    if (file_backed) {
        Result<SourceStamp> stat = stat_source(source.path);
        if (stat.ok()) live = stat.value();
        // stat failure: fall through with a zero stamp — a resident entry
        // then looks stale and the reload reports the real error.
    }

    {
        const MutexLock lock(mutex_);
        while (loading_.contains(key)) load_done_.wait(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            const bool fresh =
                !it->second.file_backed ||
                (it->second.stamp.size == live.size &&
                 it->second.stamp.mtime_ns == live.mtime_ns &&
                 (live.size != 0 || live.mtime_ns != 0));
            if (fresh) {
                it->second.last_used = ++tick_;
                ++hits_;
                return it->second.loaded;
            }
            entries_.erase(it);
        }
        loading_.insert(key);
    }

    Result<LoadedMatrix> loaded = Error(ErrorCode::InternalError, "unrun");
    try {
        loaded = load_matrix_handle(source);
    } catch (...) {
        // A throwing load must not strand the waiters.
        const MutexLock lock(mutex_);
        loading_.erase(key);
        load_done_.notify_all();
        throw;
    }
    const MutexLock lock(mutex_);
    loading_.erase(key);
    load_done_.notify_all();
    ++loads_;
    if (!loaded.ok()) return std::move(loaded).to_error();

    Entry entry;
    entry.loaded = loaded.value();
    entry.stamp = live;
    entry.file_backed = file_backed;
    entry.last_used = ++tick_;
    entries_[key] = std::move(entry);
    while (entries_.size() > capacity_) {
        auto victim = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it)
            if (it->second.last_used < victim->second.last_used) victim = it;
        entries_.erase(victim);
    }
    return std::move(loaded).value();
}

SourceCache::Stats SourceCache::stats() const {
    const MutexLock lock(mutex_);
    Stats out;
    out.entries = entries_.size();
    out.hits = hits_;
    out.loads = loads_;
    return out;
}

}  // namespace spmvcache
