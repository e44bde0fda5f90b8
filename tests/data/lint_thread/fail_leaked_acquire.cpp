// MUST fail -Wthread-safety: a raw lock() with no matching unlock() on
// a path out of the function (the leak MutexLock exists to prevent).
#include "util/annotated_mutex.hpp"

namespace {

class Leaky {
public:
    void leak(bool early) {
        mutex_.lock();
        if (early) return;  // error: mutex_ still held at return
        ++count_;
        mutex_.unlock();
    }

private:
    spmvcache::Mutex mutex_;
    long count_ SPMV_GUARDED_BY(mutex_) = 0;
};

}  // namespace

void touch(Leaky& l);
void drive() {
    Leaky l;
    l.leak(true);
    touch(l);
}
