// Binary serialization for network messages and index persistence.
//
// A deliberately simple, explicit little-endian codec: fixed-width integers,
// varint-free, length-prefixed containers. The format is stable across
// platforms because widths and byte order are pinned.
//
// Every wire record states its byte layout exactly once, as a field list:
//
//   struct Seed {
//     std::uint32_t sequence = 0;
//     double identity = 0.0;
//     template <class Io> void fields(Io& io) { io(sequence, identity); }
//   };
//
// CodecWriter and CodecReader both run that one list — `writer(record)`
// writes the fields in order, `reader(record)` reads them back in the same
// order — so the two directions cannot drift apart. The codec call follows
// from each field's C++ type:
//
//   bool                          one byte, strictly 0 or 1
//   integers (u8 … u64, i32 …)    sizeof(T) bytes, little-endian
//   double                        the IEEE-754 bits as a u64
//   std::string,
//   std::vector<std::uint8_t>     u32 length + the bytes in one bulk copy
//   std::vector<T>                u32 count + each element; the reader
//                                 rejects a count above the bytes left
//   a record (has fields())       its own field list, inline, unframed
//
// To add a field, declare the member and name it at its position in the
// record's fields(); both directions pick it up. Any change to a field list
// changes the bytes: regenerate the fuzz corpus in the same commit
// (tools/fuzz_seed_gen; the fuzz_corpus_is_current test checks it).
//
// fields() is a non-const member so one list serves both directions; the
// writer runs it on a const record through const_cast and only reads.
// Formats with framing the field list cannot state (the index snapshot's
// row blobs, the vp-prefix tree) use the primitive calls directly.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/error.h"

namespace mendel {

namespace codec_detail {
template <typename T>
inline constexpr bool is_vector_v = false;
template <typename T, typename A>
inline constexpr bool is_vector_v<std::vector<T, A>> = true;
}  // namespace codec_detail

class CodecWriter {
 public:
  CodecWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  // Appends pre-encoded bytes verbatim (no length prefix) — splices a
  // shared encoded fragment into a larger message.
  void raw(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  // Writes each field in order by its type (see the table at the top).
  template <typename... Fields>
  void operator()(const Fields&... fields) {
    (put(fields), ...);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      boolean(v);
    } else if constexpr (std::is_integral_v<T>) {
      append_le(static_cast<std::make_unsigned_t<T>>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      str(v);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      bytes(v);
    } else if constexpr (codec_detail::is_vector_v<T>) {
      u32(static_cast<std::uint32_t>(v.size()));
      for (const auto& item : v) put(item);
    } else {
      const_cast<T&>(v).fields(*this);
    }
  }

  std::vector<std::uint8_t> buf_;
};

class CodecReader {
 public:
  explicit CodecReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  // Strict: only 0/1 are valid. Accepting any nonzero byte would decode
  // 0x02 to the same value as 0x01, breaking the decode∘encode byte
  // identity the fuzz harnesses pin.
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) {
      throw DecodeError("CodecReader: non-canonical boolean byte " +
                        std::to_string(v));
    }
    return v != 0;
  }

  std::vector<std::uint8_t> bytes() {
    const auto n = u32();
    auto s = take(n);
    return {s.begin(), s.end()};
  }

  std::string str() {
    const auto n = u32();
    auto s = take(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  // Reads each field in order by its type — the inverse of
  // CodecWriter::operator() over the same field list.
  template <typename... Fields>
  void operator()(Fields&... fields) {
    (get(fields), ...);
  }

  // Consumes `n` verbatim bytes (no length prefix) — the inverse of
  // CodecWriter::raw for sections whose size is framed out of band. The
  // returned span aliases the reader's buffer.
  std::span<const std::uint8_t> raw(std::size_t n) { return take(n); }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  // Element count of a vector. Every element in the wire format encodes to
  // at least one byte, so a count exceeding the bytes left is malformed.
  // Validating up front bounds the allocation: a forged 0xFFFFFFFF count
  // must not turn into a multi-GB reserve before the first element read
  // fails.
  std::uint32_t count() {
    const auto n = u32();
    if (n > remaining()) {
      throw DecodeError("CodecReader: element count " + std::to_string(n) +
                        " exceeds " + std::to_string(remaining()) +
                        " remaining bytes");
    }
    return n;
  }

  template <typename T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = boolean();
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(read_le<std::make_unsigned_t<T>>());
    } else if constexpr (std::is_same_v<T, double>) {
      v = f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = str();
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      v = bytes();
    } else if constexpr (codec_detail::is_vector_v<T>) {
      const auto n = count();
      v.clear();
      v.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) get(v.emplace_back());
    } else {
      v.fields(*this);
    }
  }

  std::span<const std::uint8_t> take(std::size_t n) {
    // no overflow: pos_ <= size always
    if (n > data_.size() - pos_) truncated(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  // Out of line so that take(), and with it every field read, stays
  // small enough to inline.
  [[noreturn]] void truncated(std::size_t n) const;

  template <typename T>
  T read_le() {
    const std::uint8_t* s = take(sizeof(T)).data();
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, s, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(static_cast<T>(s[i]) << (8 * i));
      }
    }
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace mendel
