/**
 * @file
 * Crash-consistent checkpoint files. A checkpoint is an opaque
 * serialized payload (produced by the saveState() chain rooted at
 * sim/recovery_run.hh) framed with enough metadata to reject every
 * torn, truncated or corrupted snapshot at load time:
 *
 *   magic "TCORCKPT" | u32 version | u64 payload length |
 *   SHA-256(payload) | payload bytes
 *
 * Writing is two-phase: the frame goes to "<path>.tmp", is fsync'd,
 * and only then renamed over @p path — rename(2) is atomic within a
 * filesystem, so a crash at ANY point leaves either the previous
 * complete checkpoint or the new complete checkpoint, never a torn
 * one. Loading verifies magic, version, length and digest before
 * handing the payload back; any mismatch is reported (not fatal) so
 * callers can fall back to an older snapshot or a cold start.
 */

#ifndef TCORAM_SIM_CHECKPOINT_HH
#define TCORAM_SIM_CHECKPOINT_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tcoram::sim {

/** Current checkpoint format version. */
inline constexpr std::uint32_t kCheckpointVersion = 3;

/**
 * Atomically write @p payload as a checkpoint at @p path.
 * @return empty string on success, else a diagnostic (I/O failure).
 */
std::string saveCheckpoint(const std::string &path,
                           std::span<const std::uint8_t> payload);

/**
 * Load and verify the checkpoint at @p path into @p payload.
 * @return empty string on success, else a diagnostic naming what was
 *         wrong (missing file, bad magic, version skew, truncation,
 *         digest mismatch). @p payload is untouched on failure.
 */
std::string loadCheckpoint(const std::string &path,
                           std::vector<std::uint8_t> &payload);

} // namespace tcoram::sim

#endif // TCORAM_SIM_CHECKPOINT_HH
