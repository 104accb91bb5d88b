// One byte layer for every durable format: the WAL, snapshots and the
// flight recorder.
//
// A layout is written once, as a field list templated on the codec:
//
//   void fields(auto& io, codec::Of<DynAsk> auto& a) {
//     io(a.at, a.extra_cores, a.timeout);
//   }
//
// A ByteWriter runs the list over a const object and encodes it; a
// ByteReader runs the same list over a mutable one and decodes into it, so
// encoder and decoder cannot drift apart. A check written in the list
// (a magic number, an enum range) runs on both sides and only ever fails
// when decoding. A struct the codec meets inside another is encoded by
// its own field list, found by argument-dependent lookup: in the struct's
// namespace or in namespace codec.
//
// Wire forms: integers little-endian at their own width, a bool one byte,
// an enum its underlying type, a double its IEEE-754 bit pattern, Time
// and Duration int64 microseconds, an id its uint64 value. A string or a
// vector is a u32 count and then its elements; an optional is a presence
// byte and then the value (the default value when absent); pairs and
// arrays are their elements in order.
//
// The reader bounds-checks every access and throws precondition_error
// naming what it reads ("time index truncated"), so a truncated or corrupt
// file fails loud instead of decoding garbage. A count is checked against
// the bytes left before anything is allocated for it.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "common/types.hpp"

namespace dbs::codec {

// On a little-endian host the wire form is the memory form: one copy.
template <class T>
inline void store_le(unsigned char* p, T v) {
  static_assert(std::is_integral_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    const auto u = static_cast<std::uint64_t>(v);
    for (std::size_t i = 0; i < sizeof(T); ++i)
      p[i] = static_cast<unsigned char>((u >> (8 * i)) & 0xff);
  }
}

template <class T>
[[nodiscard]] inline T load_le(const unsigned char* p) {
  static_assert(std::is_integral_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    T v{};
    std::memcpy(&v, p, sizeof(T));
    return v;
  } else {
    std::uint64_t u = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      u |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return static_cast<T>(u);
  }
}

/// `S` is `T` or `const T`: one field list serves the writer (const) and
/// the reader (mutable).
template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

namespace detail {
template <class T>
inline constexpr bool is_optional = false;
template <class T>
inline constexpr bool is_optional<std::optional<T>> = true;
template <class T>
inline constexpr bool is_pair = false;
template <class A, class B>
inline constexpr bool is_pair<std::pair<A, B>> = true;
template <class T>
inline constexpr bool is_array = false;
template <class T, std::size_t N>
inline constexpr bool is_array<std::array<T, N>> = true;
template <class T>
inline constexpr bool is_vector = false;
template <class T>
inline constexpr bool is_vector<std::vector<T>> = true;
template <class T>
inline constexpr bool is_id = false;
template <class Tag>
inline constexpr bool is_id<dbs::detail::TaggedId<Tag>> = true;
template <class T>
inline constexpr bool is_time = std::is_same_v<T, Time> ||
                                std::is_same_v<T, Duration>;
}  // namespace detail

template <class T>
[[nodiscard]] std::size_t min_size();

class ByteWriter {
 public:
  /// Appends to `out`.
  explicit ByteWriter(std::vector<unsigned char>& out) : out_(out) {}

  /// Encodes `v...` in order; `out` holds them when the call returns.
  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
    flush();
  }
  /// The bytes of `s`, without a count.
  void bytes(std::string_view s) {
    flush();
    out_.insert(out_.end(), s.begin(), s.end());
  }

 private:
  template <class T>
  friend std::size_t min_size();
  ByteWriter(std::vector<unsigned char>& out, bool empty_sequences)
      : out_(out), empty_sequences_(empty_sequences) {}

  // Scalars are staged and appended a field list at a time: one vector
  // insert per record instead of one per field.
  void flush() {
    if (staged_size_ == 0) return;
    out_.insert(out_.end(), staged_.data(), staged_.data() + staged_size_);
    staged_size_ = 0;
  }
  template <class T>
  void scalar(T v) {
    if (staged_size_ + sizeof(T) > staged_.size()) flush();
    store_le<T>(staged_.data() + staged_size_, v);
    staged_size_ += sizeof(T);
  }
  void count(std::size_t n) {
    DBS_REQUIRE(n <= 0xffffffffu, "sequence too long to encode");
    scalar(empty_sequences_ ? std::uint32_t{0} : static_cast<std::uint32_t>(n));
  }

  template <class T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      scalar(static_cast<std::uint8_t>(v ? 1 : 0));
    } else if constexpr (std::is_enum_v<T>) {
      scalar(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      scalar(v);
    } else if constexpr (std::is_same_v<T, double>) {
      scalar(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (detail::is_time<T>) {
      scalar(v.as_micros());
    } else if constexpr (detail::is_id<T>) {
      scalar(v.value());
    } else if constexpr (std::is_same_v<T, std::string>) {
      count(v.size());
      if (!empty_sequences_) bytes(v);
    } else if constexpr (detail::is_optional<T>) {
      put(v.has_value());
      put(v ? *v : typename T::value_type{});
    } else if constexpr (detail::is_pair<T>) {
      put(v.first);
      put(v.second);
    } else if constexpr (detail::is_array<T>) {
      for (const auto& e : v) put(e);
    } else if constexpr (detail::is_vector<T>) {
      count(v.size());
      if (!empty_sequences_)
        for (const auto& e : v) put(e);
    } else {
      fields(*this, v);
    }
  }

  std::vector<unsigned char>& out_;
  std::array<unsigned char, 64> staged_{};
  std::size_t staged_size_ = 0;
  /// Encodes every string and vector as empty (min_size's probe).
  bool empty_sequences_ = false;
};

/// The fewest bytes any T encodes to: T with every string and vector
/// empty. A decoded count of T elements must fit the bytes left at this
/// size each.
template <class T>
std::size_t min_size() {
  static const std::size_t size = [] {
    std::vector<unsigned char> out;
    ByteWriter probe(out, /*empty_sequences=*/true);
    probe(T{});
    return out.size();
  }();
  return size;
}

class ByteReader {
 public:
  /// Reads the `size` bytes at `data`; `what` names them in every error.
  ByteReader(const unsigned char* data, std::size_t size, std::string_view what)
      : data_(data), size_(size), what_(what) {}

  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }
  /// The next `n` bytes, without a count.
  [[nodiscard]] std::string_view bytes(std::size_t n) {
    return {reinterpret_cast<const char*>(take(n)), n};
  }
  /// A u32 count of elements of at least `min_bytes` each, bounded by the
  /// bytes left so a corrupt count cannot drive a huge allocation.
  [[nodiscard]] std::size_t count(std::size_t min_bytes) {
    const auto n = static_cast<std::size_t>(scalar<std::uint32_t>());
    if (n * min_bytes > remaining()) fail(what_, "count exceeds the bytes left");
    return n;
  }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// Throws unless every byte was read.
  void finish() const {
    if (pos_ != size_) fail(what_, "has trailing bytes");
  }

 private:
  /// Out of line and static, so the checks that call it stay cheap.
  [[noreturn, gnu::cold, gnu::noinline]] static void fail(
      std::string_view what, std::string_view problem) {
    throw precondition_error(std::string(what) + " " + std::string(problem));
  }
  const unsigned char* take(std::size_t n) {
    if (n > remaining()) fail(what_, "truncated");
    const unsigned char* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  template <class T>
  [[nodiscard]] T scalar() {
    return load_le<T>(take(sizeof(T)));
  }

  template <class T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = scalar<std::uint8_t>() != 0;
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(scalar<std::underlying_type_t<T>>());
    } else if constexpr (std::is_integral_v<T>) {
      v = scalar<T>();
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(scalar<std::uint64_t>());
    } else if constexpr (std::is_same_v<T, Time>) {
      v = Time::from_micros(scalar<std::int64_t>());
    } else if constexpr (std::is_same_v<T, Duration>) {
      v = Duration::micros(scalar<std::int64_t>());
    } else if constexpr (detail::is_id<T>) {
      v = T(scalar<std::uint64_t>());
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = std::string(bytes(count(1)));
    } else if constexpr (detail::is_optional<T>) {
      bool has = false;
      typename T::value_type value{};
      get(has);
      get(value);
      if (has)
        v = std::move(value);
      else
        v.reset();
    } else if constexpr (detail::is_pair<T>) {
      get(v.first);
      get(v.second);
    } else if constexpr (detail::is_array<T>) {
      for (auto& e : v) get(e);
    } else if constexpr (detail::is_vector<T>) {
      v.clear();
      v.resize(count(min_size<typename T::value_type>()));
      for (auto& e : v) get(e);
    } else {
      fields(*this, v);
    }
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string_view what_;
};

}  // namespace dbs::codec
