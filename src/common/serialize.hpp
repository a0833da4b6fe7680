// Endian-safe binary serialization. All integers are little-endian on the wire
// (matching Bitcoin-family encodings); variable-length integers use the Bitcoin
// CompactSize scheme. Writer appends to an owned buffer; Reader consumes a view
// and throws DecodeError on underflow or malformed input.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace dlt {

class Writer {
public:
    Writer() = default;

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { write_le(v); }
    void u32(std::uint32_t v) { write_le(v); }
    void u64(std::uint64_t v) { write_le(v); }
    void i64(std::int64_t v) { write_le(static_cast<std::uint64_t>(v)); }
    void f64(double v);

    /// Bitcoin CompactSize: 1, 3, 5, or 9 bytes depending on magnitude.
    void varint(std::uint64_t v);
    /// The number of bytes varint(v) writes.
    static std::size_t varint_size(std::uint64_t v) {
        return v < 0xFD ? 1 : v <= 0xFFFF ? 3 : v <= 0xFFFFFFFF ? 5 : 9;
    }

    void bytes(ByteView data) { append(buf_, data); }

    /// Length-prefixed (varint) byte string.
    void blob(ByteView data) {
        varint(data.size());
        bytes(data);
    }

    void str(std::string_view s) {
        blob(ByteView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    }

    template <std::size_t N>
    void fixed(const FixedBytes<N>& v) {
        bytes(v.view());
    }

    const Bytes& data() const& { return buf_; }
    Bytes take() && { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

    /// Grow the buffer's capacity for `upcoming` more bytes. Purely a
    /// performance hint for bulk encoders (snapshot builds) that know their
    /// output size up front; never changes the produced bytes.
    void reserve(std::size_t upcoming) { buf_.reserve(buf_.size() + upcoming); }

private:
    template <typename T>
    void write_le(T v) {
        static_assert(std::is_unsigned_v<T>);
        // One ranged insert instead of per-byte push_back: the grow check
        // runs once per value, not once per byte (hot in snapshot encodes).
        std::uint8_t tmp[sizeof(T)];
        for (std::size_t i = 0; i < sizeof(T); ++i)
            tmp[i] = static_cast<std::uint8_t>(v >> (8 * i));
        buf_.insert(buf_.end(), tmp, tmp + sizeof(T));
    }

    Bytes buf_;
};

class Reader {
public:
    explicit Reader(ByteView data) : data_(data) {}

    std::uint8_t u8() { return take(1)[0]; }
    std::uint16_t u16() { return read_le<std::uint16_t>(); }
    std::uint32_t u32() { return read_le<std::uint32_t>(); }
    std::uint64_t u64() { return read_le<std::uint64_t>(); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();

    std::uint64_t varint();

    /// Read a varint element count and validate it against the bytes actually
    /// remaining (each element needs at least `min_bytes_per_item`). Prevents
    /// attacker-controlled counts from driving huge allocations before the
    /// decoder hits the end of input.
    std::uint64_t varint_count(std::size_t min_bytes_per_item = 1) {
        const std::uint64_t n = varint();
        if (min_bytes_per_item > 0 &&
            n > remaining() / min_bytes_per_item)
            throw DecodeError("element count exceeds remaining input");
        return n;
    }

    Bytes bytes(std::size_t n) {
        const ByteView v = take(n);
        return Bytes(v.begin(), v.end());
    }

    Bytes blob() {
        const std::uint64_t n = varint();
        if (n > remaining()) throw DecodeError("blob length exceeds input");
        return bytes(static_cast<std::size_t>(n));
    }

    std::string str() {
        const Bytes b = blob();
        return std::string(b.begin(), b.end());
    }

    template <std::size_t N>
    FixedBytes<N> fixed() {
        return FixedBytes<N>::from_bytes(take(N));
    }

    std::size_t remaining() const { return data_.size() - pos_; }
    bool done() const { return remaining() == 0; }

    /// Throws unless the whole input was consumed; call at the end of decoding.
    void expect_done() const {
        if (!done()) throw DecodeError("trailing bytes after decode");
    }

private:
    ByteView take(std::size_t n) {
        if (n > remaining()) throw DecodeError("read past end of input");
        const ByteView v = data_.subspan(pos_, n);
        pos_ += n;
        return v;
    }

    template <typename T>
    T read_le() {
        static_assert(std::is_unsigned_v<T>);
        const ByteView v = take(sizeof(T));
        T out = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            out |= static_cast<T>(static_cast<T>(v[i]) << (8 * i));
        return out;
    }

    ByteView data_;
    std::size_t pos_ = 0;
};

/// Serialize any type providing `void encode(Writer&) const` to a fresh buffer.
template <typename T>
Bytes encode_to_bytes(const T& value) {
    Writer w;
    value.encode(w);
    return std::move(w).take();
}

/// Decode a T from a buffer via `static T decode(Reader&)`, requiring full consumption.
template <typename T>
T decode_from_bytes(ByteView data) {
    Reader r(data);
    T value = T::decode(r);
    r.expect_done();
    return value;
}

} // namespace dlt
