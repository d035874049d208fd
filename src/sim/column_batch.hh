/**
 * @file
 * Columnar stat plane. Hot paths (ring-shard workers) record
 * telemetry as RAW TYPED VALUES into fixed-schema column buffers — no
 * per-access/per-row string formatting — and the serial end-of-run
 * pass renders the familiar CSV bytes once.
 *
 * Concurrency model: a ColumnBatch owns one ColumnChunk per worker;
 * each worker appends only to its own chunk, so recording is lock-free
 * by construction (no atomics on the data plane). Every row carries a
 * caller-chosen order key; serialization merge-sorts chunks by key, so
 * the emitted bytes are independent of worker count and interleaving —
 * byte-identical to the historical single-threaded emission
 * (test-enforced against sim/shard_worker.cc).
 */

#ifndef TCORAM_SIM_COLUMN_BATCH_HH
#define TCORAM_SIM_COLUMN_BATCH_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tcoram::sim {

enum class ColumnType : std::uint8_t
{
    Str,
    U64,
    F64,
};

/** Fixed column layout: names become the CSV header, in order. */
struct ColumnSchema
{
    struct Field
    {
        std::string name;
        ColumnType type;
    };
    std::vector<Field> fields;

    /** Header line matching the historical hand-written CSV headers. */
    std::string headerCsv() const;
};

/**
 * One worker's append-only row storage, columnar layout. Rows are
 * written cell by cell in schema order between beginRow()/endRow();
 * the writer asserts schema conformance (type and arity) per row.
 */
class ColumnChunk
{
  public:
    explicit ColumnChunk(const ColumnSchema &schema);

    /** Pre-size for @p rows rows (hot loops reserve once up front). */
    void reserve(std::size_t rows);

    /** Open a row; @p order_key determines its global emission order
     *  (keys must be unique across all chunks of a batch). */
    void beginRow(std::uint64_t order_key);
    void str(std::string v);
    void u64(std::uint64_t v);
    void f64(double v);
    void endRow();

    std::size_t rows() const { return order_.size(); }

  private:
    friend class ColumnBatch;

    struct Column
    {
        ColumnType type;
        // Exactly one of these is populated, per `type`.
        std::vector<std::string> s;
        std::vector<std::uint64_t> u;
        std::vector<double> d;
    };

    const ColumnSchema *schema_;
    std::vector<Column> cols_;
    std::vector<std::uint64_t> order_;
    std::size_t cursor_ = 0; ///< next column of the open row
    bool open_ = false;
};

/**
 * A schema plus one chunk per worker. Construction is serial; workers
 * then append concurrently, each to chunk(worker); serialization is
 * serial again after the join. csv() renders header + rows sorted by
 * order key with classic-locale formatting (byte-stable across hosts,
 * worker counts and schedules).
 */
class ColumnBatch
{
  public:
    ColumnBatch(ColumnSchema schema, std::size_t workers);

    const ColumnSchema &schema() const { return schema_; }
    ColumnChunk &chunk(std::size_t worker);

    /** Total rows recorded across chunks (serial phases only). */
    std::size_t rows() const;

    /** Header + every row, merge-sorted by order key. */
    std::string csv() const;

  private:
    ColumnSchema schema_;
    std::vector<ColumnChunk> chunks_;
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_COLUMN_BATCH_HH
