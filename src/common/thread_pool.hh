/**
 * @file
 * Persistent thread pool for campaign-scale experiment execution. One
 * pool outlives thousands of simulation tasks, so the spawn/join cost
 * of the former fork-join parallelMap (a fresh std::thread per worker
 * per call) is paid once per process instead of once per sweep.
 *
 * Design:
 *  - one FIFO queue guarded by one mutex, and one condition variable
 *    that idle workers block on. Every submit, from any thread, lands
 *    at the back; workers and helpers take from the front.
 *  - futures + exception propagation: submit() returns a real
 *    std::future; an exception thrown by the task is rethrown by
 *    future::get() on the waiter's thread.
 *  - helping waits: waitHelping() runs queued tasks while blocked on
 *    a future, so nested submits cannot deadlock even on a 1-thread
 *    pool.
 *  - graceful shutdown: the destructor stops intake, wakes everyone,
 *    joins the workers once the queue is empty, and drains any
 *    stragglers on the destructing thread, so every submitted task
 *    runs exactly once (no broken promises).
 *
 * Determinism: the pool never reorders *results* — callers index
 * output slots by task id — so simulation campaigns are bit-identical
 * for any thread count or execution interleaving (see
 * tests/campaign_test).
 */

#ifndef HIRISE_COMMON_THREAD_POOL_HH
#define HIRISE_COMMON_THREAD_POOL_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace hirise {

class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** @param threads worker count; 0 = HIRISE_THREADS env or
     *  hardware concurrency. */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned
    numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Enqueue @p fn at the back of the queue; the returned future
     *  carries its result or exception. Safe to call from worker
     *  threads (nested submit). */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>>
    {
        using R = std::invoke_result_t<std::decay_t<Fn>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        std::future<R> fut = task->get_future();
        push([task]() { (*task)(); });
        return fut;
    }

    /** Dequeue and run one pending task on the calling thread, if
     *  any. Lets waiters (and tests) make progress without a worker. */
    bool tryRunOne();

    /** Queued-but-not-started task count, read under the queue lock:
     *  always a queue length the pool really had. */
    std::uint64_t pendingTasks() const;

    /** Is the calling thread one of this pool's workers? */
    bool onWorkerThread() const;

    /** The process-wide pool (sized once on first use; see
     *  setGlobalThreads / HIRISE_THREADS). */
    static ThreadPool &global();

    /** Request a size for the global pool. Takes effect only if
     *  called before the first global() use (e.g. from --threads
     *  flag parsing at program start). */
    static void setGlobalThreads(unsigned threads);

  private:
    void push(Task t);
    /** Pop the front task; caller holds mu_ and the queue is
     *  non-empty. */
    Task popFront();
    void workerLoop();

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Task> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Block on @p fut, running other queued pool tasks while waiting.
 * Required instead of fut.get() whenever the waiter may itself be a
 * pool task (nested parallelism): a plain get() from the last worker
 * would deadlock.
 */
template <typename R>
R
waitHelping(ThreadPool &pool, std::future<R> &fut)
{
    using namespace std::chrono_literals;
    while (fut.wait_for(0s) != std::future_status::ready) {
        if (!pool.tryRunOne())
            fut.wait_for(200us);
    }
    return fut.get();
}

} // namespace hirise

#endif // HIRISE_COMMON_THREAD_POOL_HH
