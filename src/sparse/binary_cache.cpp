#include "sparse/binary_cache.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "util/fault.hpp"

namespace spmvcache {

namespace {

// The array sections are raw native-layout dumps so the mmap path is
// genuinely zero-copy; that ties the format to little-endian hosts (x86,
// A64FX). The header is serialized byte-by-byte and stays portable.
static_assert(std::endian::native == std::endian::little,
              ".spmvc caches store native little-endian arrays");

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a 64 over a byte range (header checksum — the header is small).
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t seed = kFnvBasis) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/// Section checksum: FNV-1a folded 8 little-endian bytes at a time, with
/// the byte-wise variant over the tail. The sections are tens to hundreds
/// of megabytes, and the word-wise fold keeps validation at memory
/// bandwidth instead of a byte-serial multiply chain — it is what makes a
/// warm cache load an order of magnitude cheaper than a parse. Any
/// word-length prefix still influences every later state, so a single
/// flipped bit anywhere changes the digest.
std::uint64_t section_checksum(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = kFnvBasis ^ (bytes * kFnvPrime);
    std::size_t i = 0;
    for (; i + 8 <= bytes; i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, p + i, 8);  // native little-endian (asserted)
        h ^= word;
        h *= kFnvPrime;
        h ^= h >> 29;
    }
    return fnv1a(p + i, bytes - i, h);
}

/// Little-endian field serializer over a growable byte buffer.
struct Writer {
    std::vector<char> buf;

    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const char*>(data);
        buf.insert(buf.end(), p, p + n);
    }
};

/// Little-endian field reader with bounds checking.
struct Reader {
    const unsigned char* data;
    std::size_t size;
    std::size_t pos = 0;

    [[nodiscard]] bool have(std::size_t n) const { return size - pos >= n; }
    std::uint32_t u32() {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)])
                 << (8 * i);
        pos += 4;
        return v;
    }
    std::uint64_t u64() {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data[pos + static_cast<std::size_t>(i)])
                 << (8 * i);
        pos += 8;
        return v;
    }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64() { return std::bit_cast<double>(u64()); }
};

std::uint64_t align_up(std::uint64_t v) {
    return (v + kSpmvcSectionAlign - 1) / kSpmvcSectionAlign *
           kSpmvcSectionAlign;
}

/// Fixed offset of the nnz field (see serialize_header): magic(8) +
/// version(4) + header_len(4) + rows(8) + cols(8).
constexpr std::uint64_t kHeaderNnzOffset = 32;
/// Longest source path stored verbatim; longer paths are truncated (the
/// path is informational — identity is the stamp + checksums).
constexpr std::size_t kMaxStoredPath = 2048;

struct SectionPlan {
    std::uint64_t rowptr_offset = 0, rowptr_bytes = 0;
    std::uint64_t colidx_offset = 0, colidx_bytes = 0;
    std::uint64_t values_offset = 0, values_bytes = 0;
    std::uint64_t total_bytes = 0;
};

template <class Idx>
SectionPlan plan_sections(const BasicCsrView<Idx>& m) {
    SectionPlan plan;
    plan.rowptr_bytes = m.rowptr_bytes();
    plan.colidx_bytes = m.colidx_bytes();
    plan.values_bytes = m.values_bytes();
    plan.rowptr_offset = kSpmvcSectionAlign;  // header owns page 0
    plan.colidx_offset = align_up(plan.rowptr_offset + plan.rowptr_bytes);
    plan.values_offset = align_up(plan.colidx_offset + plan.colidx_bytes);
    plan.total_bytes = align_up(plan.values_offset + plan.values_bytes);
    return plan;
}

/// Per-width element sizes as stored in (and validated against) the
/// header's width fields.
std::uint32_t rowptr_elem_bytes(IndexWidth w) noexcept {
    return w == IndexWidth::W32 ? sizeof(Idx32::offset_type)
                                : sizeof(Idx64::offset_type);
}
std::uint32_t colidx_elem_bytes(IndexWidth w) noexcept {
    return w == IndexWidth::W32 ? sizeof(Idx32::index_type)
                                : sizeof(Idx64::index_type);
}

/// Serializes the full header (everything on page 0, trailing checksum
/// included). The layout is part of the format: bump kSpmvcFormatVersion
/// on any change.
template <class Idx>
std::vector<char> serialize_header(const BasicCsrView<Idx>& m,
                                   const MatrixFingerprint& fingerprint,
                                   const MatrixStats& stats,
                                   const std::string& source_path,
                                   const SourceStamp& stamp,
                                   const SectionPlan& plan,
                                   std::uint64_t rowptr_checksum,
                                   std::uint64_t colidx_checksum,
                                   std::uint64_t values_checksum) {
    std::string path = source_path;
    if (path.size() > kMaxStoredPath) path.resize(kMaxStoredPath);

    Writer w;
    w.bytes(kSpmvcMagic, sizeof(kSpmvcMagic));
    w.u32(kSpmvcFormatVersion);
    // Total header length (checksum included); patched below once known.
    const std::size_t len_field = w.buf.size();
    w.u32(0);
    w.i64(m.rows());
    w.i64(m.cols());
    w.i64(m.nnz());
    w.u32(sizeof(typename Idx::offset_type));
    w.u32(sizeof(typename Idx::index_type));
    w.u32(sizeof(double));
    // Element-width tag (32 or 64): redundant with the per-array width
    // fields above, and validated against them on load, so a corrupted
    // width field cannot silently change the array layout.
    w.u32(static_cast<std::uint32_t>(Idx::width));
    w.u64(stamp.size);
    w.i64(stamp.mtime_ns);
    w.u64(plan.rowptr_offset);
    w.u64(plan.rowptr_bytes);
    w.u64(plan.colidx_offset);
    w.u64(plan.colidx_bytes);
    w.u64(plan.values_offset);
    w.u64(plan.values_bytes);
    w.u64(rowptr_checksum);
    w.u64(colidx_checksum);
    w.u64(values_checksum);
    w.i64(fingerprint.rows);
    w.i64(fingerprint.cols);
    w.i64(fingerprint.nnz);
    for (const std::uint64_t b : fingerprint.row_hist) w.u64(b);
    for (const std::uint64_t b : fingerprint.band_hist) w.u64(b);
    w.u64(fingerprint.hash_hi);
    w.u64(fingerprint.hash_lo);
    w.i64(stats.rows);
    w.i64(stats.cols);
    w.i64(stats.nnz);
    w.f64(stats.mean_nnz_per_row);
    w.f64(stats.stddev_nnz_per_row);
    w.f64(stats.cv_nnz_per_row);
    w.i64(stats.max_nnz_per_row);
    w.i64(stats.empty_rows);
    w.f64(stats.mean_abs_column_distance);
    w.i64(stats.bandwidth);
    w.u64(stats.matrix_bytes);
    w.u64(stats.working_set_bytes);
    w.u32(static_cast<std::uint32_t>(path.size()));
    w.bytes(path.data(), path.size());

    const std::uint32_t total =
        static_cast<std::uint32_t>(w.buf.size() + 8);  // + checksum field
    for (int i = 0; i < 4; ++i)
        w.buf[len_field + static_cast<std::size_t>(i)] =
            static_cast<char>((total >> (8 * i)) & 0xFF);
    w.u64(fnv1a(w.buf.data(), w.buf.size()));
    return w.buf;
}

const void* byte_ptr(const unsigned char* base, std::uint64_t offset) {
    return static_cast<const void*>(base + offset);
}

/// Decodes + validates the header region (steps: magic, version, length,
/// checksum, widths, internal consistency). `file_bytes` bounds every
/// read. On success `plan` and `info` are filled in.
[[nodiscard]] Status decode_header(const unsigned char* data,
                                   std::uint64_t file_bytes, SpmvcInfo& info,
                                   SectionPlan& plan) {
    const auto invalid = [](std::string what) {
        return Status(ErrorCode::ValidationError, std::move(what));
    };
    if (file_bytes < sizeof(kSpmvcMagic) ||
        std::memcmp(data, kSpmvcMagic, sizeof(kSpmvcMagic)) != 0)
        return Status(ErrorCode::ParseError,
                      "not a .spmvc file (bad magic)");
    Reader r{data, static_cast<std::size_t>(
                       std::min<std::uint64_t>(file_bytes, kSpmvcSectionAlign))};
    r.pos = sizeof(kSpmvcMagic);
    if (!r.have(8))
        return Status(ErrorCode::ParseError, "truncated .spmvc header");
    info.format_version = r.u32();
    if (info.format_version != kSpmvcFormatVersion)
        return Status(ErrorCode::UnsupportedError,
                      "unsupported .spmvc format version " +
                          std::to_string(info.format_version) +
                          " (this build reads version " +
                          std::to_string(kSpmvcFormatVersion) + ")");
    const std::uint32_t header_len = r.u32();
    if (header_len < 64 || header_len > kSpmvcSectionAlign)
        return invalid("header length field out of range");
    if (header_len > file_bytes)
        return Status(ErrorCode::ParseError,
                      "truncated .spmvc file (header cut short)");
    const std::uint64_t stored_checksum = fnv1a(data, header_len - 8);
    Reader tail{data, header_len};
    tail.pos = header_len - 8;
    if (tail.u64() != stored_checksum)
        return invalid("header checksum mismatch");

    r.size = header_len - 8;  // all further reads stay inside the payload
    if (!r.have(8 * 3 + 4 * 4 + 8 * 2 + 8 * 6 + 8 * 3))
        return Status(ErrorCode::ParseError, "truncated .spmvc header");
    info.rows = r.i64();
    info.cols = r.i64();
    info.nnz = r.i64();
    const std::uint32_t rowptr_width = r.u32();
    const std::uint32_t colidx_width = r.u32();
    const std::uint32_t value_width = r.u32();
    const std::uint32_t width_tag = r.u32();
    if (value_width != sizeof(double))
        return Status(ErrorCode::UnsupportedError,
                      "unsupported .spmvc array widths");
    if (rowptr_width == 4 && colidx_width == 4) {
        info.index_width = IndexWidth::W32;
    } else if (rowptr_width == 8 && colidx_width == 8) {
        info.index_width = IndexWidth::W64;
    } else if (rowptr_width == 8 && colidx_width == 4) {
        // The retired mixed layout (int64 rowptr + int32 colidx) of
        // format version 1; the version check already rejects those
        // files, but a doctored header must not slip through either.
        return Status(ErrorCode::UnsupportedError,
                      "legacy mixed-width .spmvc layout (re-ingest the "
                      "source to rebuild the cache)");
    } else {
        return Status(ErrorCode::UnsupportedError,
                      "unsupported .spmvc array widths");
    }
    if (width_tag != static_cast<std::uint32_t>(info.index_width))
        return invalid("element-width tag disagrees with array widths");
    info.source.size = r.u64();
    info.source.mtime_ns = r.i64();
    plan.rowptr_offset = r.u64();
    plan.rowptr_bytes = r.u64();
    plan.colidx_offset = r.u64();
    plan.colidx_bytes = r.u64();
    plan.values_offset = r.u64();
    plan.values_bytes = r.u64();
    const std::uint64_t rowptr_checksum = r.u64();
    const std::uint64_t colidx_checksum = r.u64();
    const std::uint64_t values_checksum = r.u64();
    (void)rowptr_checksum;
    (void)colidx_checksum;
    (void)values_checksum;

    const std::size_t fp_stats_bytes =
        8 * 3 + 8 * (kFingerprintRowBuckets + kFingerprintBandBuckets) +
        8 * 2 + 8 * 3 + 8 * 3 + 8 * 2 + 8 + 8 + 8 * 2;
    if (!r.have(fp_stats_bytes + 4))
        return Status(ErrorCode::ParseError, "truncated .spmvc header");
    info.fingerprint.rows = r.i64();
    info.fingerprint.cols = r.i64();
    info.fingerprint.nnz = r.i64();
    for (std::uint64_t& b : info.fingerprint.row_hist) b = r.u64();
    for (std::uint64_t& b : info.fingerprint.band_hist) b = r.u64();
    info.fingerprint.hash_hi = r.u64();
    info.fingerprint.hash_lo = r.u64();
    info.stats.rows = r.i64();
    info.stats.cols = r.i64();
    info.stats.nnz = r.i64();
    info.stats.mean_nnz_per_row = r.f64();
    info.stats.stddev_nnz_per_row = r.f64();
    info.stats.cv_nnz_per_row = r.f64();
    info.stats.max_nnz_per_row = r.i64();
    info.stats.empty_rows = r.i64();
    info.stats.mean_abs_column_distance = r.f64();
    info.stats.bandwidth = r.i64();
    info.stats.matrix_bytes = r.u64();
    info.stats.working_set_bytes = r.u64();
    const std::uint32_t path_len = r.u32();
    if (!r.have(path_len))
        return Status(ErrorCode::ParseError, "truncated .spmvc header");
    info.source_path.assign(
        static_cast<const char*>(byte_ptr(data, r.pos)), path_len);
    r.pos += path_len;
    info.file_bytes = file_bytes;

    // Internal consistency: the dimensions, the section geometry and the
    // fingerprint must agree before any array bytes are trusted.
    if (info.rows < 0 || info.cols < 0 || info.nnz < 0)
        return invalid("negative dimensions in .spmvc header");
    if (const Result<std::int64_t> bytes = checked_working_set_bytes(
            info.rows, info.cols, info.nnz, info.index_width);
        !bytes.ok())
        return invalid("unaddressable shape in .spmvc header: " +
                       bytes.error().message);
    if (plan.rowptr_bytes != (static_cast<std::uint64_t>(info.rows) + 1) *
                                 rowptr_elem_bytes(info.index_width))
        return invalid("rowptr section length disagrees with rows");
    if (plan.colidx_bytes != static_cast<std::uint64_t>(info.nnz) *
                                 colidx_elem_bytes(info.index_width))
        return invalid("colidx section length disagrees with nnz");
    if (plan.values_bytes !=
        static_cast<std::uint64_t>(info.nnz) * sizeof(double))
        return invalid("values section length disagrees with nnz");
    for (const std::uint64_t offset :
         {plan.rowptr_offset, plan.colidx_offset, plan.values_offset})
        if (offset % kSpmvcSectionAlign != 0)
            return invalid("misaligned section offset");
    if (plan.rowptr_offset < kSpmvcSectionAlign ||
        plan.colidx_offset < plan.rowptr_offset + plan.rowptr_bytes ||
        plan.values_offset < plan.colidx_offset + plan.colidx_bytes)
        return invalid("overlapping .spmvc sections");
    if (info.fingerprint.rows != info.rows ||
        info.fingerprint.cols != info.cols ||
        info.fingerprint.nnz != info.nnz)
        return invalid("fingerprint disagrees with .spmvc dimensions");
    return OkStatus();
}

/// Section checksums live at a fixed offset past the geometry block.
struct SectionChecksums {
    std::uint64_t rowptr = 0, colidx = 0, values = 0;
};

SectionChecksums read_section_checksums(const unsigned char* data) {
    Reader r{data, kSpmvcSectionAlign};
    r.pos = kHeaderNnzOffset + 8 + 4 * 4 + 8 * 2 + 8 * 6;
    SectionChecksums sums;
    sums.rowptr = r.u64();
    sums.colidx = r.u64();
    sums.values = r.u64();
    return sums;
}

}  // namespace

[[nodiscard]] Result<SourceStamp> stat_source(const std::string& path) {
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        return Error(ErrorCode::ResourceError,
                     "cannot stat '" + path + "'");
    SourceStamp stamp;
    stamp.size = static_cast<std::uint64_t>(st.st_size);
    stamp.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) *
                         1000000000LL +
                     static_cast<std::int64_t>(st.st_mtim.tv_nsec);
    return stamp;
}

MappedCsr::MappedCsr(MappedCsr&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      length_(std::exchange(other.length_, 0)),
      view_(std::exchange(other.view_, AnyCsrView{})),
      info_(std::move(other.info_)) {}

MappedCsr& MappedCsr::operator=(MappedCsr&& other) noexcept {
    if (this != &other) {
        if (base_ != nullptr) ::munmap(base_, length_);
        base_ = std::exchange(other.base_, nullptr);
        length_ = std::exchange(other.length_, 0);
        view_ = std::exchange(other.view_, AnyCsrView{});
        info_ = std::move(other.info_);
    }
    return *this;
}

MappedCsr::~MappedCsr() {
    if (base_ != nullptr) ::munmap(base_, length_);
}

namespace {

template <class Idx>
[[nodiscard]] Status write_binary_cache_impl(
    const std::string& cache_path, const BasicCsrView<Idx>& m,
    const MatrixFingerprint& fingerprint, const MatrixStats& stats,
    const std::string& source_path, const SourceStamp& stamp) {
    const SectionPlan plan = plan_sections(m);
    const std::uint64_t rowptr_checksum =
        section_checksum(m.rowptr().data(), plan.rowptr_bytes);
    const std::uint64_t colidx_checksum =
        section_checksum(m.colidx().data(), plan.colidx_bytes);
    const std::uint64_t values_checksum =
        section_checksum(m.values().data(), plan.values_bytes);
    const std::vector<char> header = serialize_header(
        m, fingerprint, stats, source_path, stamp, plan, rowptr_checksum,
        colidx_checksum, values_checksum);
    SPMV_EXPECTS(header.size() <= kSpmvcSectionAlign);

    // Assemble under a temporary name, rename over the target: readers see
    // the old cache or the complete new one, never a half-written file.
    const std::string tmp_path = cache_path + ".tmp";
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out)
        return Status(ErrorCode::ResourceError,
                      "cannot open '" + tmp_path + "' for writing");
    const auto pad_to = [&out](std::uint64_t target) {
        static constexpr char zeros[512] = {};
        auto pos = static_cast<std::uint64_t>(out.tellp());
        while (pos < target) {
            const std::uint64_t n =
                std::min<std::uint64_t>(target - pos, sizeof(zeros));
            out.write(zeros, static_cast<std::streamsize>(n));
            pos += n;
        }
    };
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    pad_to(plan.rowptr_offset);
    out.write(static_cast<const char*>(
                  static_cast<const void*>(m.rowptr().data())),
              static_cast<std::streamsize>(plan.rowptr_bytes));
    pad_to(plan.colidx_offset);
    out.write(static_cast<const char*>(
                  static_cast<const void*>(m.colidx().data())),
              static_cast<std::streamsize>(plan.colidx_bytes));
    pad_to(plan.values_offset);
    out.write(static_cast<const char*>(
                  static_cast<const void*>(m.values().data())),
              static_cast<std::streamsize>(plan.values_bytes));
    pad_to(plan.total_bytes);
    out.flush();
    const bool write_ok = static_cast<bool>(out);
    out.close();
    if (!write_ok) {
        std::error_code ec;
        std::filesystem::remove(tmp_path, ec);
        return Status(ErrorCode::ResourceError,
                      "write failed for '" + tmp_path + "'");
    }
    std::error_code ec;
    std::filesystem::rename(tmp_path, cache_path, ec);
    if (ec) {
        std::filesystem::remove(tmp_path, ec);
        return Status(ErrorCode::ResourceError,
                      "cannot rename cache into place at '" + cache_path +
                          "'");
    }
    return OkStatus();
}

}  // namespace

[[nodiscard]] Status write_binary_cache(const std::string& cache_path,
                                        const AnyCsrView& m,
                                        const MatrixFingerprint& fingerprint,
                                        const MatrixStats& stats,
                                        const std::string& source_path,
                                        const SourceStamp& stamp) {
    if (Status s = fault::maybe_fail("cache.write"); !s.ok())
        return std::move(s).wrap("writing cache '" + cache_path + "'");
    return m.visit([&](const auto& view) {
        return write_binary_cache_impl(cache_path, view, fingerprint, stats,
                                       source_path, stamp);
    });
}

[[nodiscard]] Result<MappedCsr> load_binary_cache(
    const std::string& cache_path, const SourceStamp* expected,
    IndexWidthChoice want) {
    if (Status s = fault::maybe_fail("cache.map"); !s.ok())
        return std::move(s).wrap("mapping cache '" + cache_path + "'");

    const int fd = ::open(cache_path.c_str(), O_RDONLY);
    if (fd < 0)
        return Error(ErrorCode::ResourceError,
                     "cannot open cache '" + cache_path + "'");
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return Error(ErrorCode::ResourceError,
                     "cannot stat cache '" + cache_path + "'");
    }
    const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
    if (file_bytes == 0) {
        ::close(fd);
        return Error(ErrorCode::ParseError, "empty .spmvc file");
    }
    void* base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps its own reference
    if (base == MAP_FAILED)
        return Error(ErrorCode::ResourceError,
                     "mmap failed for cache '" + cache_path + "'");

    MappedCsr mapped;
    mapped.base_ = base;
    mapped.length_ = file_bytes;  // destructor now owns the munmap

    const auto* data = static_cast<const unsigned char*>(base);
    SectionPlan plan;
    if (Status s = decode_header(data, file_bytes, mapped.info_, plan);
        !s.ok())
        return std::move(s).wrap("loading cache '" + cache_path + "'");

    // A forced width treats the other-width entry like a miss: the caller
    // re-parses at the wanted width and rewrites the cache.
    if ((want == IndexWidthChoice::W32 &&
         mapped.info_.index_width != IndexWidth::W32) ||
        (want == IndexWidthChoice::W64 &&
         mapped.info_.index_width != IndexWidth::W64))
        return Error(ErrorCode::UnsupportedError,
                     "cache stores " +
                         std::string(to_string(mapped.info_.index_width)) +
                         "-bit indices but --index-width forces " +
                         std::string(to_string(want)))
            .wrap("loading cache '" + cache_path + "'");

    for (const auto& [offset, bytes, what] :
         {std::tuple{plan.rowptr_offset, plan.rowptr_bytes, "rowptr"},
          std::tuple{plan.colidx_offset, plan.colidx_bytes, "colidx"},
          std::tuple{plan.values_offset, plan.values_bytes, "values"}})
        if (offset > file_bytes || bytes > file_bytes - offset)
            return Error(ErrorCode::ParseError,
                         "truncated .spmvc file (" + std::string(what) +
                             " section extends past end of file)")
                .wrap("loading cache '" + cache_path + "'");

    if (expected != nullptr &&
        (mapped.info_.source.size != expected->size ||
         mapped.info_.source.mtime_ns != expected->mtime_ns))
        return Error(ErrorCode::CacheStale,
                     "source file changed since the cache was written "
                     "(cached size=" +
                         std::to_string(mapped.info_.source.size) +
                         ", live size=" + std::to_string(expected->size) +
                         ")")
            .wrap("loading cache '" + cache_path + "'");

    const SectionChecksums sums = read_section_checksums(data);
    if (section_checksum(byte_ptr(data, plan.rowptr_offset),
                         plan.rowptr_bytes) != sums.rowptr)
        return Error(ErrorCode::ValidationError,
                     "rowptr section checksum mismatch")
            .wrap("loading cache '" + cache_path + "'");
    if (section_checksum(byte_ptr(data, plan.colidx_offset),
                         plan.colidx_bytes) != sums.colidx)
        return Error(ErrorCode::ValidationError,
                     "colidx section checksum mismatch")
            .wrap("loading cache '" + cache_path + "'");
    if (section_checksum(byte_ptr(data, plan.values_offset),
                         plan.values_bytes) != sums.values)
        return Error(ErrorCode::ValidationError,
                     "values section checksum mismatch")
            .wrap("loading cache '" + cache_path + "'");

    // Page-aligned offsets guarantee the alignment of every element type.
    const auto make_view = [&]<class Idx>(Idx) {
        return BasicCsrView<Idx>(
            mapped.info_.rows, mapped.info_.cols,
            std::span<const typename Idx::offset_type>(
                static_cast<const typename Idx::offset_type*>(
                    byte_ptr(data, plan.rowptr_offset)),
                static_cast<std::size_t>(mapped.info_.rows) + 1),
            std::span<const typename Idx::index_type>(
                static_cast<const typename Idx::index_type*>(
                    byte_ptr(data, plan.colidx_offset)),
                static_cast<std::size_t>(mapped.info_.nnz)),
            std::span<const double>(
                static_cast<const double*>(
                    byte_ptr(data, plan.values_offset)),
                static_cast<std::size_t>(mapped.info_.nnz)));
    };
    if (mapped.info_.index_width == IndexWidth::W32)
        mapped.view_ = AnyCsrView(make_view(Idx32{}));
    else
        mapped.view_ = AnyCsrView(make_view(Idx64{}));
    if (Status s = mapped.view_.visit(
            [](const auto& v) { return check_csr_view(v); });
        !s.ok())
        return std::move(s).wrap("loading cache '" + cache_path + "'");
    return mapped;
}

[[nodiscard]] Result<SpmvcInfo> inspect_binary_cache(
    const std::string& cache_path) {
    std::ifstream in(cache_path, std::ios::binary);
    if (!in)
        return Error(ErrorCode::ResourceError,
                     "cannot open cache '" + cache_path + "'");
    std::vector<char> head(kSpmvcSectionAlign);
    in.read(head.data(), static_cast<std::streamsize>(head.size()));
    const auto got = static_cast<std::uint64_t>(in.gcount());
    std::error_code ec;
    const auto file_bytes = static_cast<std::uint64_t>(
        std::filesystem::file_size(cache_path, ec));
    SpmvcInfo info;
    SectionPlan plan;
    if (Status s = decode_header(
            static_cast<const unsigned char*>(
                static_cast<const void*>(head.data())),
            got, info, plan);
        !s.ok())
        return std::move(s).wrap("inspecting cache '" + cache_path + "'");
    if (!ec) info.file_bytes = file_bytes;
    return info;
}

namespace spmvc_testing {

[[nodiscard]] Status fixup_header_checksum(const std::string& cache_path) {
    std::fstream io(cache_path,
                    std::ios::binary | std::ios::in | std::ios::out);
    if (!io)
        return Status(ErrorCode::ResourceError,
                      "cannot open '" + cache_path + "'");
    std::vector<char> head(kSpmvcSectionAlign);
    io.read(head.data(), static_cast<std::streamsize>(head.size()));
    const auto got = static_cast<std::size_t>(io.gcount());
    if (got < 16)
        return Status(ErrorCode::ParseError, "truncated .spmvc header");
    Reader r{static_cast<const unsigned char*>(
                 static_cast<const void*>(head.data())),
             got};
    r.pos = sizeof(kSpmvcMagic) + 4;
    const std::uint32_t header_len = r.u32();
    if (header_len < 64 || header_len > got)
        return Status(ErrorCode::ValidationError,
                      "header length field out of range");
    const std::uint64_t checksum = fnv1a(head.data(), header_len - 8);
    Writer w;
    w.u64(checksum);
    io.clear();
    io.seekp(static_cast<std::streamoff>(header_len - 8));
    io.write(w.buf.data(), static_cast<std::streamsize>(w.buf.size()));
    io.flush();
    if (!io)
        return Status(ErrorCode::ResourceError,
                      "rewrite failed for '" + cache_path + "'");
    return OkStatus();
}

std::uint64_t header_nnz_offset() noexcept { return kHeaderNnzOffset; }

}  // namespace spmvc_testing

}  // namespace spmvcache
