/**
 * @file
 * Non-blocking write buffer (8 entries in Table 1). Absorbs LLC
 * writebacks/stores so the core keeps retiring while misses are
 * outstanding; when full, the core stalls. This is the mechanism that
 * generates multiple concurrent outstanding LLC misses — the "Req 3"
 * case in the paper's Figure 4 Waste accounting.
 */

#ifndef TCORAM_CACHE_WRITE_BUFFER_HH
#define TCORAM_CACHE_WRITE_BUFFER_HH

#include <cstdint>
#include <deque>

#include "common/types.hh"

namespace tcoram::cache {

class WriteBuffer
{
  public:
    explicit WriteBuffer(std::size_t capacity = 8) : capacity_(capacity) {}

    /** True if another entry can be accepted. */
    bool canAccept() const { return queue_.size() < capacity_; }

    /** Enqueue a pending line-write to @p addr (must canAccept()). */
    void push(Addr addr);

    /** Oldest pending write, if any. */
    bool empty() const { return queue_.empty(); }
    std::size_t size() const { return queue_.size(); }
    Addr front() const;
    void pop();

    std::size_t capacity() const { return capacity_; }
    std::uint64_t totalPushed() const { return pushed_; }
    /** Number of push attempts rejected because the buffer was full. */
    std::uint64_t fullStalls() const { return fullStalls_; }
    void noteFullStall() { ++fullStalls_; }
    /** Count @p n writes that retired the cycle they were pushed (the
     *  zero-latency fast-forward, cpu::fastForward): they add to
     *  totalPushed() but never occupy an entry. */
    void notePassedThrough(std::uint64_t n) { pushed_ += n; }

    bool operator==(const WriteBuffer &) const = default;

  private:
    std::size_t capacity_;
    std::deque<Addr> queue_;
    std::uint64_t pushed_ = 0;
    std::uint64_t fullStalls_ = 0;
};

} // namespace tcoram::cache

#endif // TCORAM_CACHE_WRITE_BUFFER_HH
