// Implementation of run_collection (included from collection.hpp).
#pragma once

#include <atomic>
#include <exception>
#include <iostream>

#include "sync/thread_pool.hpp"
#include "util/annotated_mutex.hpp"
#include "util/timer.hpp"

namespace spmvcache {

template <class Result>
std::vector<CollectionOutcome<Result>> run_collection(
    const std::vector<gen::MatrixSpec>& suite,
    const std::function<Result(const std::string& name, const CsrMatrix&)>&
        experiment,
    const CollectionOptions& options) {
    std::vector<CollectionOutcome<Result>> outcomes(suite.size());
    std::atomic<std::size_t> completed{0};
    // Serializes the progress lines so concurrent workers never
    // interleave characters on stderr.
    Mutex progress_mutex;

    auto run_one = [&](std::size_t i) {
        const auto& spec = suite[i];
        auto& outcome = outcomes[i];
        outcome.name = spec.name;
        outcome.family = spec.family;
        const Timer timer;
        try {
            const CsrMatrix m = spec.factory();
            outcome.result = experiment(spec.name, m);
            outcome.ok = true;
        } catch (const std::exception& e) {
            outcome.error = e.what();
        }
        const std::size_t done = completed.fetch_add(1) + 1;
        const MutexLock lock(progress_mutex);
        std::cerr << "[" << done << "/" << suite.size() << "] " << spec.name
                  << (outcome.ok ? "" : " FAILED: ") << outcome.error << " ("
                  << timer.seconds() << "s)\n";
    };

    if (options.host_threads <= 1) {
        for (std::size_t i = 0; i < suite.size(); ++i) run_one(i);
    } else {
        ThreadPool pool(static_cast<std::size_t>(options.host_threads));
        pool.parallel_for(suite.size(), run_one);
    }
    return outcomes;
}

}  // namespace spmvcache
