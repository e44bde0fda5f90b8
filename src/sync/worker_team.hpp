// Persistent worker team with *stable* worker identities, the execution
// substrate of the kernel engine (kernels/engine.hpp).
//
// Unlike ThreadPool (a FIFO work queue where any worker may pick up any
// task), WorkerTeam::run(fn) always executes fn(i) on the same OS thread
// for a given i. That stability is what makes first-touch NUMA placement
// meaningful: the worker that initialises a row range's slice of x, y and
// the matrix arrays is the worker that executes every subsequent SpMV
// iteration over that range, so pages stay local to the core that faults
// them in. Each run() is one static worksharing region, the schedule of
// the paper's Listing 1, over threads that persist between regions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotated_mutex.hpp"

namespace spmvcache {

/// Fixed team of workers; run(fn) executes fn(i) on worker i for every
/// i in [0, size()) and blocks until all have finished (a full barrier).
class WorkerTeam {
public:
    /// Spawns `workers` threads that idle until run(). Pre: workers >= 1.
    explicit WorkerTeam(std::size_t workers);
    ~WorkerTeam();

    WorkerTeam(const WorkerTeam&) = delete;
    WorkerTeam& operator=(const WorkerTeam&) = delete;

    /// Executes fn(i) on worker i for all i, then returns once every worker
    /// is done. The first exception thrown by any fn(i) is rethrown on the
    /// calling thread after the barrier (the remaining workers still finish
    /// their indices). Not reentrant: run() must not be called from inside
    /// a team task, and only one run() may be active at a time.
    void run(const std::function<void(std::size_t)>& fn)
        SPMV_EXCLUDES(mutex_);

    [[nodiscard]] std::size_t size() const noexcept {
        return threads_.size();
    }

private:
    void worker_loop(std::size_t index) SPMV_EXCLUDES(mutex_);

    Mutex mutex_;
    CondVar start_;
    CondVar done_;
    const std::function<void(std::size_t)>* fn_ SPMV_GUARDED_BY(mutex_) =
        nullptr;
    std::uint64_t generation_ SPMV_GUARDED_BY(mutex_) = 0;
    std::size_t remaining_ SPMV_GUARDED_BY(mutex_) = 0;
    bool stopping_ SPMV_GUARDED_BY(mutex_) = false;
    std::exception_ptr failure_ SPMV_GUARDED_BY(mutex_);
    std::vector<std::thread> threads_;
};

}  // namespace spmvcache
