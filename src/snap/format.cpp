/**
 * @file
 * eaao-snap container encode/decode (see format.hpp for layout).
 */

#include "snap/format.hpp"

#include <sstream>

#include "exp/thread_pool.hpp"
#include "support/logging.hpp"

namespace eaao::snap {

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

bool
hostIsLittleEndian()
{
    const std::uint16_t probe = 1;
    std::uint8_t low = 0;
    std::memcpy(&low, &probe, 1);
    return low == 1;
}

} // namespace

void
SectionWriter::putString(const std::string &s)
{
    putU64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
SectionWriter::putF64Array(const double *v, std::size_t n)
{
    if (hostIsLittleEndian()) {
        // The in-memory column already is the wire layout: bulk-append
        // it instead of paying a call per element.
        const std::size_t off = buf_.size();
        buf_.resize(off + n * 8);
        std::memcpy(buf_.data() + off, v, n * 8);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        putF64(v[i]);
}

bool
SectionReader::getBits(std::uint64_t &v, unsigned bytes)
{
    if (size_ - off_ < bytes)
        return false;
    // memcpy into a zeroed staging array + shift assembly: the
    // compiler folds this into one little-endian load, where the
    // per-byte indexing it replaces did not vectorize.
    std::uint8_t tmp[8] = {};
    std::memcpy(tmp, data_ + off_, bytes);
    std::uint64_t out = 0;
    for (unsigned i = 0; i < bytes; ++i)
        out |= static_cast<std::uint64_t>(tmp[i]) << (8 * i);
    off_ += bytes;
    v = out;
    return true;
}

bool
SectionReader::getF64Array(double *v, std::size_t n)
{
    if ((size_ - off_) / 8 < n)
        return false;
    if (hostIsLittleEndian()) {
        std::memcpy(v, data_ + off_, n * 8);
        off_ += n * 8;
        return true;
    }
    for (std::size_t i = 0; i < n; ++i)
        if (!getF64(v[i]))
            return false;
    return true;
}

bool
SectionReader::getU8(std::uint8_t &v)
{
    if (size_ - off_ < 1)
        return false;
    v = data_[off_++];
    return true;
}

bool
SectionReader::getU32(std::uint32_t &v)
{
    std::uint64_t bits = 0;
    if (!getBits(bits, 4))
        return false;
    v = static_cast<std::uint32_t>(bits);
    return true;
}

bool
SectionReader::getU64(std::uint64_t &v)
{
    return getBits(v, 8);
}

bool
SectionReader::getI64(std::int64_t &v)
{
    std::uint64_t bits = 0;
    if (!getBits(bits, 8))
        return false;
    v = static_cast<std::int64_t>(bits);
    return true;
}

bool
SectionReader::getF64(double &v)
{
    std::uint64_t bits = 0;
    if (!getBits(bits, 8))
        return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
}

bool
SectionReader::getString(std::string &s)
{
    std::uint64_t n = 0;
    if (!getU64(n) || size_ - off_ < n)
        return false;
    s.assign(reinterpret_cast<const char *>(data_ + off_),
             static_cast<std::size_t>(n));
    off_ += static_cast<std::size_t>(n);
    return true;
}

void
SnapshotWriter::addSection(std::uint32_t id, std::vector<std::uint8_t> payload)
{
    for (const Section &s : sections_)
        EAAO_ASSERT(s.id != id, "duplicate snapshot section id ", id);
    sections_.push_back(Section{id, std::move(payload)});
}

namespace {

void
putHeaderU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putHeaderU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t
headerU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::uint32_t
headerU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

constexpr std::size_t kHeaderSize = 24;
constexpr std::size_t kTableEntrySize = 32;

} // namespace

std::vector<std::uint8_t>
SnapshotWriter::finish() const
{
    std::size_t payload_bytes = 0;
    for (const Section &s : sections_)
        payload_bytes += s.payload.size();

    std::vector<std::uint8_t> out;
    out.reserve(kHeaderSize + payload_bytes +
                sections_.size() * kTableEntrySize);
    for (const char c : kMagic)
        out.push_back(static_cast<std::uint8_t>(c));
    putHeaderU32(out, kFormatVersion);
    putHeaderU32(out, static_cast<std::uint32_t>(sections_.size()));
    putHeaderU64(out, kHeaderSize + payload_bytes); // table offset

    struct Entry
    {
        std::uint32_t id;
        std::uint64_t offset;
        std::uint64_t size;
        std::uint64_t checksum;
    };
    std::vector<Entry> table;
    table.reserve(sections_.size());
    for (const Section &s : sections_) {
        table.push_back(Entry{s.id, out.size(), s.payload.size(),
                              fnv1a(s.payload.data(), s.payload.size())});
        out.insert(out.end(), s.payload.begin(), s.payload.end());
    }
    for (const Entry &e : table) {
        putHeaderU32(out, e.id);
        putHeaderU32(out, 0); // reserved
        putHeaderU64(out, e.offset);
        putHeaderU64(out, e.size);
        putHeaderU64(out, e.checksum);
    }
    return out;
}

bool
SnapshotReader::parse(const std::vector<std::uint8_t> &image,
                      std::string &error, unsigned threads)
{
    ids_.clear();
    payloads_.clear();

    if (image.size() < kHeaderSize) {
        error = "truncated snapshot: shorter than the 24-byte header";
        return false;
    }
    if (std::memcmp(image.data(), kMagic, sizeof kMagic) != 0) {
        error = "not an eaao-snap file (bad magic)";
        return false;
    }
    const std::uint32_t version = headerU32(image.data() + 8);
    if (version == 0) {
        error = "corrupt snapshot: format version 0";
        return false;
    }
    if (version != kFormatVersion) {
        std::ostringstream msg;
        msg << "snapshot format v" << version << " is "
            << (version > kFormatVersion ? "newer" : "older")
            << " than this binary supports (only v" << kFormatVersion
            << "); re-capture with this build";
        error = msg.str();
        return false;
    }
    const std::uint32_t count = headerU32(image.data() + 12);
    const std::uint64_t table_offset = headerU64(image.data() + 16);
    if (table_offset < kHeaderSize || table_offset > image.size() ||
        image.size() - table_offset <
            static_cast<std::uint64_t>(count) * kTableEntrySize) {
        error = "truncated snapshot: section table out of bounds";
        return false;
    }

    // Pass 1: bounds + duplicate checks, in table order.
    std::vector<std::uint64_t> expected(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint8_t *entry =
            image.data() + table_offset + i * kTableEntrySize;
        const std::uint32_t id = headerU32(entry);
        const std::uint64_t offset = headerU64(entry + 8);
        const std::uint64_t size = headerU64(entry + 16);
        expected[i] = headerU64(entry + 24);
        if (offset < kHeaderSize || offset > table_offset ||
            size > table_offset - offset) {
            std::ostringstream msg;
            msg << "corrupt snapshot: section " << id
                << " payload out of bounds";
            error = msg.str();
            ids_.clear();
            payloads_.clear();
            return false;
        }
        for (const std::uint32_t seen : ids_) {
            if (seen == id) {
                std::ostringstream msg;
                msg << "corrupt snapshot: duplicate section " << id;
                error = msg.str();
                ids_.clear();
                payloads_.clear();
                return false;
            }
        }
        ids_.push_back(id);
        payloads_.push_back(SectionView{image.data() + offset,
                                        static_cast<std::size_t>(size)});
    }

    // Pass 2: checksums — independent per section, so optionally
    // fanned over workers; mismatches are reported in table order
    // regardless of which worker finds them first.
    std::vector<std::uint64_t> actual(count);
    const auto sum = [this, &actual](std::uint32_t i) {
        actual[i] = fnv1a(payloads_[i].data, payloads_[i].size);
    };
    if (threads > 1 && count > 1) {
        exp::ThreadPool pool(threads < count ? threads : count);
        for (std::uint32_t i = 0; i < count; ++i)
            pool.submit([&sum, i] { sum(i); });
        pool.wait();
    } else {
        for (std::uint32_t i = 0; i < count; ++i)
            sum(i);
    }
    for (std::uint32_t i = 0; i < count; ++i) {
        if (actual[i] != expected[i]) {
            std::ostringstream msg;
            msg << "corrupt snapshot: section " << ids_[i]
                << " checksum mismatch";
            error = msg.str();
            ids_.clear();
            payloads_.clear();
            return false;
        }
    }
    return true;
}

const SectionView *
SnapshotReader::section(std::uint32_t id) const
{
    for (std::size_t i = 0; i < ids_.size(); ++i)
        if (ids_[i] == id)
            return &payloads_[i];
    return nullptr;
}

} // namespace eaao::snap
