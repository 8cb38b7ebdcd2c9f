/**
 * @file
 * Parallel map over the persistent thread pool (see
 * thread_pool.hh). Formerly a fork-join helper that spawned and
 * joined fresh std::threads per call; at campaign scale (thousands of
 * independent simulation runs per figure suite) that start-up cost
 * dominated, so parallelMap is now a thin wrapper that submits one
 * task per item to a shared pool and helps execute tasks while
 * waiting. Results land in index-order slots, so output is
 * bit-identical for any thread count or execution order.
 */

#ifndef HIRISE_COMMON_PARALLEL_HH
#define HIRISE_COMMON_PARALLEL_HH

#include <exception>
#include <future>
#include <type_traits>
#include <vector>

#include "common/thread_pool.hh"

namespace hirise {

/**
 * Apply @p fn to every element of @p items through @p pool (null =
 * the global pool) and return the results in order. @p fn must be
 * safe to call concurrently on distinct items; exceptions thrown by
 * any invocation are rethrown (the earliest item's first) after every
 * task has finished. Pass @p max_threads = 1 to force a serial
 * in-place loop (identical results, no pool traffic).
 */
template <typename T, typename Fn>
auto
parallelMap(const std::vector<T> &items, Fn fn,
            unsigned max_threads = 0, ThreadPool *pool = nullptr)
    -> std::vector<std::invoke_result_t<Fn, const T &>>
{
    using R = std::invoke_result_t<Fn, const T &>;
    std::vector<R> out(items.size());
    if (items.empty())
        return out;

    if (max_threads == 1 || items.size() == 1) {
        for (std::size_t i = 0; i < items.size(); ++i)
            out[i] = fn(items[i]);
        return out;
    }

    ThreadPool &p = pool ? *pool : ThreadPool::global();
    std::vector<std::future<void>> futs;
    futs.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        futs.push_back(
            p.submit([&items, &out, &fn, i] { out[i] = fn(items[i]); }));
    }

    // Wait on every future (helping, so nested parallelMap calls on
    // an exhausted pool still make progress) and surface the lowest-
    // index failure once all tasks have quiesced.
    std::exception_ptr first_error;
    for (auto &f : futs) {
        try {
            waitHelping(p, f);
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
    return out;
}

} // namespace hirise

#endif // HIRISE_COMMON_PARALLEL_HH
