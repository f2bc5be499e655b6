/**
 * @file
 * Append-only table of fixed-size chunks.
 *
 * A `std::vector` that grows by doubling copies every record on each
 * growth step and frees the old buffer. For the orchestrator's
 * instance table (every instance ever created, 16 MB in the largest
 * paper campaign) those frees are multi-MB blocks, and glibc answers
 * the free of an mmap'd block by raising its mmap threshold to that
 * size: later large buffers then come from the per-thread arenas and
 * stay resident after they are freed, so peak RSS climbs with the
 * number of pool threads. This table allocates chunks of at most 64
 * KiB — below glibc's initial 128 KiB threshold — and never
 * reallocates, so nothing is copied and no large block is ever freed
 * mid-run. Records never move: a reference stays valid across later
 * push_back calls.
 */

#ifndef EAAO_SUPPORT_CHUNKED_TABLE_HPP
#define EAAO_SUPPORT_CHUNKED_TABLE_HPP

#include <bit>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace eaao::support {

/** Append-only, index-addressable table whose records never move. */
template <typename T>
class ChunkedTable
{
  public:
    /** Largest chunk allocation, bytes. */
    static constexpr std::size_t kChunkBytes = 64 * 1024;
    static_assert(sizeof(T) <= kChunkBytes, "record larger than a chunk");

    /** Records per chunk: a power of two, so indexing is shift/mask. */
    static constexpr std::size_t kPerChunk =
        std::bit_floor(kChunkBytes / sizeof(T));

    ChunkedTable() = default;
    // A copied chunk would not keep its reserved capacity, so a later
    // push_back could move its records; tables are only ever moved.
    ChunkedTable(const ChunkedTable &) = delete;
    ChunkedTable &operator=(const ChunkedTable &) = delete;
    ChunkedTable(ChunkedTable &&) = default;
    ChunkedTable &operator=(ChunkedTable &&) = default;

    std::size_t size() const { return size_; }

    T &
    operator[](std::size_t i)
    {
        return chunks_[i / kPerChunk][i % kPerChunk];
    }

    const T &
    operator[](std::size_t i) const
    {
        return chunks_[i / kPerChunk][i % kPerChunk];
    }

    /** Append @p value; returns the stored record. */
    T &
    push_back(T value)
    {
        if (size_ % kPerChunk == 0) {
            chunks_.emplace_back();
            chunks_.back().reserve(kPerChunk);
        }
        ++size_;
        return chunks_.back().emplace_back(std::move(value));
    }

    /** In-order iteration (what range-for needs). */
    template <bool Const>
    class Iter
    {
      public:
        using Table =
            std::conditional_t<Const, const ChunkedTable, ChunkedTable>;
        using Ref = std::conditional_t<Const, const T &, T &>;

        Iter(Table *table, std::size_t i) : table_(table), i_(i) {}

        Ref operator*() const { return (*table_)[i_]; }
        auto operator->() const { return &(*table_)[i_]; }

        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }

        bool operator==(const Iter &o) const { return i_ == o.i_; }

      private:
        Table *table_;
        std::size_t i_;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    /** Each chunk's capacity is reserved once at kPerChunk; it never
     *  reallocates, so its records keep their addresses. */
    std::vector<std::vector<T>> chunks_;
    std::size_t size_ = 0;
};

} // namespace eaao::support

#endif // EAAO_SUPPORT_CHUNKED_TABLE_HPP
