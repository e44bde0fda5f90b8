// A matrix "source": either a Matrix Market file path or a generator spec
// (`FAMILY:N`, e.g. `stencil2d5:512`). The CLI subcommands and the serve
// daemon share this one loader, so a request can name a matrix exactly the
// way the command line does and both front ends agree on what it denotes —
// canonical_key() is that shared identity (quarantine and logging key on
// it before a fingerprint can exist).
//
// With cache_dir set, file sources flow through the `.spmvc` binary cache
// (sparse/binary_cache.hpp): a fresh cache entry is mmapped zero-copy and
// the stored fingerprint/stats are reused without touching the .mtx text;
// a missing, stale or corrupt entry falls back to a parse (on parse_jobs
// workers) and rewrites the cache. load_matrix_handle() is the
// one entry point.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "sparse/any_csr.hpp"
#include "sparse/binary_cache.hpp"
#include "sparse/csr.hpp"
#include "sparse/csr_view.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/index_width.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/annotated_mutex.hpp"
#include "util/status.hpp"

namespace spmvcache {

/// Where a request's matrix comes from. Exactly one of `path` / `gen_spec`
/// is non-empty.
struct MatrixSource {
    std::string path;      ///< Matrix Market file
    std::string gen_spec;  ///< generator family:size spec
    std::uint64_t seed = 42;
    bool strict_parse = false;
    /// Directory for `.spmvc` binary cache entries; empty disables the
    /// cache (every load parses). Created on first write if missing.
    std::string cache_dir;
    /// .mtx parse workers on a cache miss or uncached load (see
    /// MmReadOptions::jobs): 1 = inline on the caller, 0 = all cores,
    /// N > 1 = that many; negative counts as 0.
    std::int64_t parse_jobs = 1;
    /// Physical index width of the loaded arrays: Auto narrows to 32-bit
    /// whenever rows/cols/nnz fit, a forced width is honoured or fails
    /// with UnsupportedError. Part of the identity — the same file at
    /// 32-bit and at 64-bit indices is two different loaded matrices.
    /// The default is the build-configured choice (cmake
    /// SPMV_DEFAULT_INDEX_WIDTH, normally auto).
    IndexWidthChoice index_width = default_index_width_choice();

    [[nodiscard]] bool empty() const noexcept {
        return path.empty() && gen_spec.empty();
    }

    /// Stable identity string ("file:/a/b.mtx|strict=1|w=auto",
    /// "gen:banded:64@42|strict=0|w=32") used for quarantine keys and log
    /// lines. Cache and parser knobs do not change what the source
    /// denotes, so they are not part of the key; the index width is,
    /// because it changes the loaded arrays.
    [[nodiscard]] std::string canonical_key() const;
};

/// How a LoadedMatrix was obtained.
enum class LoadOrigin : std::uint8_t {
    Generated,  ///< synthesized from a generator spec
    Parsed,     ///< .mtx text parsed (cache off, missing, stale or corrupt)
    CacheHit,   ///< mmapped from a valid .spmvc entry, zero text I/O
};

[[nodiscard]] const char* to_string(LoadOrigin origin) noexcept;

/// A loaded matrix plus everything the pipeline downstream needs: a
/// non-owning view, the owner keeping the bytes alive (an in-memory
/// CsrMatrix or a read-only mmap), and the fingerprint/stats that the
/// serve plan cache and the batch report consume. Copyable — copies share
/// the owner.
struct LoadedMatrix {
    AnyCsrView view;
    std::shared_ptr<const AnyCsrMatrix> owned;  ///< set unless mmapped
    std::shared_ptr<const MappedCsr> mapped; ///< set on a cache hit
    MatrixFingerprint fingerprint;
    MatrixStats stats;
    LoadOrigin origin = LoadOrigin::Parsed;
    /// True when this load wrote (or refreshed) the cache entry.
    bool cache_written = false;

    /// Anything that must outlive the view (detached deadline workers hold
    /// this; see core/deadline.hpp).
    [[nodiscard]] std::shared_ptr<const void> keepalive() const noexcept {
        if (mapped) return mapped;
        return owned;
    }
};

/// Builds a matrix from a generator spec (`stencil2d5:512`). Families:
/// stencil2d5 stencil3d27 banded circuit random randomcv blockfem.
[[nodiscard]] Result<CsrMatrix> generated_matrix(const std::string& spec,
                                                 std::uint64_t seed);

/// Cache entry path for a file source: <cache_dir>/<stem>-<hash>[s].spmvc.
/// The hash covers the absolute source path; strict parses get their own
/// entry because strict acceptance is part of what the cache certifies.
[[nodiscard]] std::string spmvc_cache_path(const std::string& cache_dir,
                                           const std::string& source_path,
                                           bool strict_parse);

/// Cache-aware loader (see file comment). Never fails because of cache
/// trouble alone: any cache problem silently degrades to a parse.
[[nodiscard]] Result<LoadedMatrix> load_matrix_handle(
    const MatrixSource& source);

/// Process-local memo of loaded matrices keyed by canonical_key(), so a
/// daemon serving repeated requests for the same source skips file I/O
/// entirely (the serve hot path holds one of these). File-backed entries
/// revalidate against the live file's size/mtime on every get; stale
/// entries reload through load_matrix_handle. Thread-safe; concurrent
/// get()s of one key share a single load.
class SourceCache {
public:
    /// One consistent counter snapshot (single lock acquisition), so
    /// hits + loads equals the number of completed get() calls even
    /// while other threads are mid-get.
    struct Stats {
        std::size_t entries = 0;   ///< currently resident
        std::uint64_t hits = 0;    ///< get()s answered without a load
        std::uint64_t loads = 0;   ///< get()s that loaded (miss/stale)
    };

    /// Keeps at most `capacity` entries (least-recently-used evicted).
    explicit SourceCache(std::size_t capacity = 8) : capacity_(capacity) {}

    /// Cached LoadedMatrix for `source`, loading (and caching) on miss.
    [[nodiscard]] Result<LoadedMatrix> get(const MatrixSource& source)
        SPMV_EXCLUDES(mutex_);

    /// All counters under one lock.
    [[nodiscard]] Stats stats() const SPMV_EXCLUDES(mutex_);

private:
    struct Entry {
        LoadedMatrix loaded;
        SourceStamp stamp;       ///< zero for generated sources
        bool file_backed = false;
        std::uint64_t last_used = 0;
    };

    mutable Mutex mutex_;
    std::unordered_map<std::string, Entry> entries_ SPMV_GUARDED_BY(mutex_);
    /// Keys a get() is loading right now; other get()s of them wait on
    /// load_done_ and then take the fresh entry as a hit.
    std::unordered_set<std::string> loading_ SPMV_GUARDED_BY(mutex_);
    CondVar load_done_;
    const std::size_t capacity_;  ///< immutable after construction
    std::uint64_t tick_ SPMV_GUARDED_BY(mutex_) = 0;
    std::uint64_t hits_ SPMV_GUARDED_BY(mutex_) = 0;
    std::uint64_t loads_ SPMV_GUARDED_BY(mutex_) = 0;
};

}  // namespace spmvcache
