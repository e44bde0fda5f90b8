#include "sparse/gen/suite.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "sparse/gen/banded.hpp"
#include "sparse/gen/block.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/rmat.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/matrix_market.hpp"
#include "util/error.hpp"

namespace spmvcache::gen {

namespace {

/// One family = a size-parameterised generator; `t` in [0, 1] sweeps from
/// the family's smallest to largest instance (log-interpolated dimensions).
struct Family {
    const char* name;
    std::function<MatrixSpec(double t, double scale, std::uint64_t seed)> make;
};

std::int64_t lerp_size(double t, double lo, double hi, double scale) {
    const double v = lo * std::pow(hi / lo, t) * scale;
    return std::max<std::int64_t>(4, static_cast<std::int64_t>(v));
}

std::string size_tag(std::int64_t n) {
    std::string tag = "@";
    tag += std::to_string(n);
    return tag;
}

const std::vector<Family>& families() {
    static const std::vector<Family> kFamilies = {
        {"stencil2d5",
         [](double t, double scale, std::uint64_t) {
             // 2D 5-point grids from 256^2 to 2048^2 nodes.
             const auto side = lerp_size(t, 256, 2048, std::sqrt(scale));
             return MatrixSpec{"stencil2d5" + size_tag(side), "stencil2d5",
                               [side] { return stencil_2d_5pt(side, side); }};
         }},
        {"stencil3d27",
         [](double t, double scale, std::uint64_t) {
             // 3D 27-point grids from 24^3 to 128^3 nodes.
             const auto side = lerp_size(t, 24, 128, std::cbrt(scale));
             return MatrixSpec{"stencil3d27" + size_tag(side), "stencil3d27",
                               [side] {
                                   return stencil_3d_27pt(side, side, side);
                               }};
         }},
        {"banded",
         [](double t, double scale, std::uint64_t seed) {
             const auto n = lerp_size(t, 1 << 16, 1 << 21, scale);
             const std::int64_t k = 16;
             const std::int64_t hb = std::max<std::int64_t>(64, n / 256);
             return MatrixSpec{"banded" + size_tag(n), "banded",
                               [n, k, hb, seed] {
                                   return banded(n, k, hb, seed);
                               }};
         }},
        {"circuit",
         [](double t, double scale, std::uint64_t seed) {
             const auto n = lerp_size(t, 1 << 17, 1 << 22, scale);
             return MatrixSpec{"circuit" + size_tag(n), "circuit",
                               [n, seed] {
                                   return circuit(n, 3.0, n / 64, 0.05, seed);
                               }};
         }},
        {"random",
         [](double t, double scale, std::uint64_t seed) {
             const auto n = lerp_size(t, 1 << 15, 1 << 20, scale);
             return MatrixSpec{"random" + size_tag(n), "random",
                               [n, seed] {
                                   return random_uniform(n, n, 24, seed);
                               }};
         }},
        {"randomcv",
         [](double t, double scale, std::uint64_t seed) {
             // Low mu_K, high CV_K: the hard case for method (B) (§4.5.2).
             const auto n = lerp_size(t, 1 << 16, 1 << 21, scale);
             return MatrixSpec{"randomcv" + size_tag(n), "randomcv",
                               [n, seed] {
                                   return random_variable_rows(n, n, 5.0, 2.0,
                                                               seed);
                               }};
         }},
        {"rmat",
         [](double t, double scale, std::uint64_t seed) {
             const auto target = lerp_size(t, 1 << 16, 1 << 21, scale);
             std::int64_t sc = 14;
             while ((std::int64_t{1} << sc) < target && sc < 24) ++sc;
             const std::int64_t edges = (std::int64_t{1} << sc) * 12;
             return MatrixSpec{"rmat" + size_tag(std::int64_t{1} << sc),
                               "rmat",
                               [sc, edges, seed] {
                                   return rmat(sc, edges, seed);
                               }};
         }},
        {"blockfem",
         [](double t, double scale, std::uint64_t seed) {
             const auto blocks = lerp_size(t, 4096, 65536, scale);
             return MatrixSpec{"blockfem" + size_tag(blocks * 8), "blockfem",
                               [blocks, seed] {
                                   return block_fem(blocks, 8, 6, blocks / 64,
                                                    seed);
                               }};
         }},
    };
    return kFamilies;
}

}  // namespace

std::vector<MatrixSpec> synthetic_suite(const SuiteOptions& options) {
    SPMV_EXPECTS(options.count >= 1);
    SPMV_EXPECTS(options.scale > 0.0);
    SPMV_EXPECTS(options.t_min >= 0.0 && options.t_min < 1.0);
    const auto& fams = families();
    const auto per_family = static_cast<std::int64_t>(
        (options.count + static_cast<std::int64_t>(fams.size()) - 1) /
        static_cast<std::int64_t>(fams.size()));

    std::vector<MatrixSpec> suite;
    suite.reserve(static_cast<std::size_t>(per_family) * fams.size());
    for (std::size_t f = 0; f < fams.size(); ++f) {
        for (std::int64_t i = 0; i < per_family; ++i) {
            double t = per_family == 1
                           ? 0.5
                           : static_cast<double>(i) /
                                 static_cast<double>(per_family - 1);
            t = options.t_min + (1.0 - options.t_min) * t;
            const std::uint64_t seed =
                options.seed * 1000003ULL + f * 101ULL +
                static_cast<std::uint64_t>(i);
            suite.push_back(fams[f].make(t, options.scale, seed));
        }
    }
    std::sort(suite.begin(), suite.end(),
              [](const MatrixSpec& a, const MatrixSpec& b) {
                  return a.name < b.name;
              });
    return suite;
}

std::vector<MatrixSpec> matrix_market_suite(const std::string& directory) {
    namespace fs = std::filesystem;
    std::vector<MatrixSpec> suite;
    for (const auto& entry : fs::directory_iterator(directory)) {
        if (!entry.is_regular_file()) continue;
        const auto path = entry.path();
        if (path.extension() != ".mtx") continue;
        suite.push_back(MatrixSpec{
            path.stem().string(), "matrix-market",
            [p = path.string()] { return read_matrix_market_file(p); }});
    }
    std::sort(suite.begin(), suite.end(),
              [](const MatrixSpec& a, const MatrixSpec& b) {
                  return a.name < b.name;
              });
    return suite;
}

}  // namespace spmvcache::gen
