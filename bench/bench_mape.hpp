// Shared implementation of Tables 2 and 3: MAPE (and standard deviation
// of the absolute percentage error) of the L2 cache-miss predictions of
// methods (A) and (B) against the simulator, per sector configuration.
#pragma once

#include "bench_common.hpp"

namespace spmvcache::bench {

/// Per-matrix comparison record kept for the MAPE aggregation.
struct MapeRecord {
    std::string name;
    MatrixStats stats;
    std::vector<double> measured;     ///< index 0 = no sector cache
    std::vector<double> predicted_a;
    std::vector<double> predicted_b;
    double x_fraction = 0.0;  ///< §4.5.5 hard-case criterion
    double seconds_a = 0.0;
    double seconds_b = 0.0;
    double measured_l1 = 0.0;
    double predicted_l1_a = 0.0;
    double predicted_l1_b = 0.0;
};

/// Runs Table 2 (threads == 1) or Table 3 (threads == 48): prints the
/// MAPE table over all matrices whose working set exceeds
/// `min_working_set`, the filtered (mu_K >= 8, CV <= 1) subset of §4.5.2,
/// the hard-case subset (x traffic >= 50 %), the L1 MAPE of §4.5.4 and
/// the method runtime overhead of §4.5.1.
inline int run_mape_bench(const char* title, const CommonOptions& common,
                          std::uint64_t min_working_set,
                          double suite_t_min = 0.0) {
    const std::vector<std::uint32_t> way_options = {2, 3, 4, 5, 6, 7};
    const auto suite = build_suite(common, suite_t_min);
    auto options = experiment_options(common);

    std::vector<MapeRecord> records;
    const std::function<MapeRecord(const std::string&, const CsrMatrix&)>
        exp_fn = [&](const std::string& name, const CsrMatrix& m) {
            MapeRecord rec;
            rec.name = name;
            const auto cmp = model_vs_measured(m, way_options, options);
            rec.stats = cmp.stats;
            rec.measured = cmp.measured_l2;
            for (const auto& c : cmp.method_a.configs)
                rec.predicted_a.push_back(c.l2_misses);
            for (const auto& c : cmp.method_b.configs)
                rec.predicted_b.push_back(c.l2_misses);
            rec.x_fraction = cmp.method_a.x_traffic_fraction;
            rec.seconds_a = cmp.method_a.seconds;
            rec.seconds_b = cmp.method_b.seconds;
            rec.measured_l1 = cmp.measured_l1_unpartitioned;
            rec.predicted_l1_a = cmp.method_a.l1_misses;
            rec.predicted_l1_b = cmp.method_b.l1_misses;
            return rec;
        };
    const auto outcomes = run_collection<MapeRecord>(
        suite, exp_fn, {.host_threads = common.host_threads});

    std::size_t skipped_small = 0;
    for (const auto& o : outcomes) {
        if (!o.ok) continue;
        if (o.result.stats.working_set_bytes <= min_working_set) {
            ++skipped_small;
            continue;
        }
        records.push_back(o.result);
    }
    std::cout << "\n" << records.size() << " matrices above "
              << fmt_bytes(min_working_set) << " (" << skipped_small
              << " below threshold skipped, as in the paper)\n\n";
    if (records.empty()) {
        std::cout << "no matrices to aggregate — increase --count/--scale\n";
        return 1;
    }

    auto mape_row = [&](const std::string& label, std::size_t config_index,
                        const std::vector<const MapeRecord*>& subset) {
        std::vector<double> measured, pa, pb;
        for (const auto* r : subset) {
            measured.push_back(r->measured[config_index]);
            pa.push_back(r->predicted_a[config_index]);
            pb.push_back(r->predicted_b[config_index]);
        }
        return std::vector<std::string>{
            label, fmt(mape(measured, pa), 2) + " %",
            fmt(ape_stddev(measured, pa), 2) + " %",
            fmt(mape(measured, pb), 2) + " %",
            fmt(ape_stddev(measured, pb), 2) + " %"};
    };

    std::vector<const MapeRecord*> all;
    for (const auto& r : records) all.push_back(&r);

    std::cout << title << "\n";
    TextTable table({"L2 Sector Cache", "A: Mean", "A: Std", "B: Mean",
                     "B: Std"});
    table.add_row(mape_row("No Sector Cache", 0, all));
    for (std::size_t i = 0; i < way_options.size(); ++i)
        table.add_row(mape_row(std::to_string(way_options[i]) + " L2 ways",
                               i + 1, all));
    table.render(std::cout);

    // §4.5.2/4.5.3: filtered subset where method (B) is reliable.
    std::vector<const MapeRecord*> filtered;
    for (const auto& r : records)
        if (r.stats.mean_nnz_per_row >= 8.0 && r.stats.cv_nnz_per_row <= 1.0)
            filtered.push_back(&r);
    if (!filtered.empty()) {
        std::cout << "\nFiltered subset (mu_K >= 8, CV <= 1): "
                  << filtered.size() << " matrices\n";
        TextTable ft({"L2 Sector Cache", "A: Mean", "A: Std", "B: Mean",
                      "B: Std"});
        ft.add_row(mape_row("No Sector Cache", 0, filtered));
        ft.render(std::cout);
    }

    // §4.5.5: hard cases where x causes >= 50 % of the predicted traffic.
    std::vector<const MapeRecord*> hard;
    for (const auto& r : records)
        if (r.x_fraction >= 0.5) hard.push_back(&r);
    std::cout << "\nHard cases (x >= 50 % of traffic): " << hard.size()
              << " matrices (paper: 42/490; MAPE ~8-10 %)\n";
    if (!hard.empty()) {
        TextTable ht({"L2 Sector Cache", "A: Mean", "A: Std", "B: Mean",
                      "B: Std"});
        ht.add_row(mape_row("No Sector Cache", 0, hard));
        ht.add_row(mape_row("5 L2 ways", 4, hard));
        ht.render(std::cout);
    }

    // §4.5.4: L1 miss prediction accuracy (unpartitioned).
    {
        std::vector<double> measured, pa, pb;
        for (const auto& r : records) {
            measured.push_back(r.measured_l1);
            pa.push_back(r.predicted_l1_a);
            pb.push_back(r.predicted_l1_b);
        }
        std::cout << "\nL1 miss prediction (no partitioning): method (A) "
                  << fmt(mape(measured, pa), 2) << " %, method (B) "
                  << fmt(mape(measured, pb), 2)
                  << " %  (paper: ~8.4-8.9 % / ~13.7-15.3 %)\n";
    }

    // §4.5.1: model runtime overhead.
    double ta = 0.0, tb = 0.0;
    for (const auto& r : records) {
        ta += r.seconds_a;
        tb += r.seconds_b;
    }
    std::cout << "\nModel runtime: t_A total " << fmt(ta, 2)
              << " s, t_B total " << fmt(tb, 2) << " s, overhead t_A/t_B "
              << fmt(tb > 0 ? ta / tb : 0.0, 2)
              << "x (paper: 4.21x at 1 thread, 3.02x at 48)\n";

    if (!common.csv_path.empty()) {
        CsvWriter csv(common.csv_path,
                      {"matrix", "config", "measured", "predicted_a",
                       "predicted_b"});
        for (const auto& r : records) {
            for (std::size_t c = 0; c < r.measured.size(); ++c) {
                const std::string cfg =
                    c == 0 ? "off" : std::to_string(way_options[c - 1]);
                csv.write_row({r.name, cfg, fmt(r.measured[c], 0),
                               fmt(r.predicted_a[c], 0),
                               fmt(r.predicted_b[c], 0)});
            }
        }
    }
    return 0;
}

}  // namespace spmvcache::bench
