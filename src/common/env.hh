/**
 * @file
 * Environment-variable configuration shared by benches and examples.
 */

#ifndef ANN_COMMON_ENV_HH
#define ANN_COMMON_ENV_HH

#include <atomic>
#include <cstdint>
#include <string>

namespace ann {

/** Read string env var @p name, or @p fallback when unset. */
std::string envString(const char *name, const std::string &fallback);

/** Read integer env var @p name, or @p fallback when unset/invalid. */
std::int64_t envInt(const char *name, std::int64_t fallback);

/**
 * Read boolean env var @p name ("0"/"false"/"off"/"no" are false,
 * anything else true), or @p fallback when unset.
 */
bool envFlag(const char *name, bool fallback);

/**
 * A process-wide runtime toggle: seeded from envFlag(Name, Default) on
 * first use (so variables set by main() before then still count) and
 * settable afterwards for A/B harnesses.
 */
template <const char *Name, bool Default>
std::atomic<bool> &
envToggle()
{
    static std::atomic<bool> flag{envFlag(Name, Default)};
    return flag;
}

/**
 * Directory used to cache generated datasets and built indexes across
 * bench/example invocations ($ANN_CACHE_DIR, default "./ann_cache").
 * The directory is created on first use.
 */
std::string cacheDir();

/**
 * Workload scale factor ($ANN_SCALE, default 1): multiplies the
 * scaled-down dataset row counts, letting users run closer to the
 * paper's sizes on bigger machines.
 */
std::int64_t workloadScale();

/**
 * Real-I/O backend serving index node files ($ANN_IO_BACKEND:
 * "memory" | "file" | "uring", default "memory").
 */
std::string ioBackendName();

/**
 * Submission window of the real-I/O backends ($ANN_IO_QUEUE_DEPTH,
 * default 32, floor 1): SQEs in flight per io_uring batch, or the
 * pread overlap width of the file backend.
 */
std::int64_t ioQueueDepth();

} // namespace ann

#endif // ANN_COMMON_ENV_HH
