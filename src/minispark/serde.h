#ifndef RANKJOIN_MINISPARK_SERDE_H_
#define RANKJOIN_MINISPARK_SERDE_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace rankjoin::minispark {

/// Serialization trait used by the shuffle spill path (see shuffle.h).
///
/// `Serde<T>` turns a shuffle record into bytes and back:
///
///   Size(v)            — exact number of bytes Write will append
///   Write(v, &buffer)  — append the encoding of `v` to `buffer`
///   Read(&p, end, &v)  — decode one record at `*p`, advancing `*p`
///
/// Specializations below cover trivially copyable types (memcpy'd
/// verbatim), std::string, std::pair, and std::vector recursively,
/// which together encode every record type the join pipelines shuffle
/// (postings, posting groups, scored pairs, centroid records).
///
/// The encoding is IN-PROCESS only: spill files never outlive the
/// process, so raw pointers inside records (e.g. RankingView::items,
/// which points into the driver-held columnar store) round-trip as plain
/// values. Join postings need no such care: they carry row indices.
/// Nothing here handles endianness or versioning on purpose.
///
/// The primary template is deliberately DECLARED but not defined: a
/// record type that is neither trivially copyable nor composed of the
/// covered shapes has no Serde, which `has_serde_v<T>` (below) detects.
/// Such a type can still cross a RESIDENT shuffle — the engine gates
/// every spill/serialize path on the trait — but it cannot spill, and
/// the plan linter flags it (diagnostic MS004) whenever a spill budget
/// is configured. Define a specialization next to the type to make it
/// spillable (see RankingView in ranking/flat_rankings.h).
template <typename T, typename Enable = void>
struct Serde;

/// Fast path: trivially copyable records are memcpy'd verbatim.
template <typename T>
struct Serde<T, std::enable_if_t<std::is_trivially_copyable_v<T>>> {
  static size_t Size(const T& /*v*/) { return sizeof(T); }

  static void Write(const T& v, std::string* out) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  static void Read(const char** p, const char* end, T* out) {
    RANKJOIN_CHECK(*p + sizeof(T) <= end);
    std::memcpy(out, *p, sizeof(T));
    *p += sizeof(T);
  }
};

namespace serde_internal {

/// Length prefix of strings and vectors. 32 bits bound one record's
/// variable-length field at 4G entries — far beyond any posting list.
using LengthPrefix = uint32_t;

inline void WriteLength(size_t n, std::string* out) {
  RANKJOIN_CHECK(n <= std::numeric_limits<LengthPrefix>::max());
  const LengthPrefix len = static_cast<LengthPrefix>(n);
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
}

inline LengthPrefix ReadLength(const char** p, const char* end) {
  LengthPrefix len = 0;
  RANKJOIN_CHECK(*p + sizeof(len) <= end);
  std::memcpy(&len, *p, sizeof(len));
  *p += sizeof(len);
  return len;
}

}  // namespace serde_internal

template <>
struct Serde<std::string> {
  static size_t Size(const std::string& v) {
    return sizeof(serde_internal::LengthPrefix) + v.size();
  }

  static void Write(const std::string& v, std::string* out) {
    serde_internal::WriteLength(v.size(), out);
    out->append(v);
  }

  static void Read(const char** p, const char* end, std::string* out) {
    const auto len = serde_internal::ReadLength(p, end);
    RANKJOIN_CHECK(*p + len <= end);
    out->assign(*p, len);
    *p += len;
  }
};

/// std::pair is never trivially copyable (its assignment operator is
/// user-provided), so even pairs of PODs take this field-wise path.
template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static size_t Size(const std::pair<A, B>& v) {
    return Serde<A>::Size(v.first) + Serde<B>::Size(v.second);
  }

  static void Write(const std::pair<A, B>& v, std::string* out) {
    Serde<A>::Write(v.first, out);
    Serde<B>::Write(v.second, out);
  }

  static void Read(const char** p, const char* end, std::pair<A, B>* out) {
    Serde<A>::Read(p, end, &out->first);
    Serde<B>::Read(p, end, &out->second);
  }
};

template <typename U>
struct Serde<std::vector<U>> {
  static size_t Size(const std::vector<U>& v) {
    size_t total = sizeof(serde_internal::LengthPrefix);
    if constexpr (std::is_trivially_copyable_v<U>) {
      total += v.size() * sizeof(U);
    } else {
      for (const U& u : v) total += Serde<U>::Size(u);
    }
    return total;
  }

  static void Write(const std::vector<U>& v, std::string* out) {
    serde_internal::WriteLength(v.size(), out);
    if constexpr (std::is_trivially_copyable_v<U>) {
      // Bulk fast path: posting lists are vectors of POD postings. The
      // empty guard keeps v.data() (possibly null) out of append().
      if (!v.empty()) {
        out->append(reinterpret_cast<const char*>(v.data()),
                    v.size() * sizeof(U));
      }
    } else {
      for (const U& u : v) Serde<U>::Write(u, out);
    }
  }

  static void Read(const char** p, const char* end, std::vector<U>* out) {
    const auto len = serde_internal::ReadLength(p, end);
    out->clear();
    if constexpr (std::is_trivially_copyable_v<U>) {
      RANKJOIN_CHECK(*p + static_cast<size_t>(len) * sizeof(U) <= end);
      if (len > 0) {
        out->resize(len);
        std::memcpy(out->data(), *p, static_cast<size_t>(len) * sizeof(U));
        *p += static_cast<size_t>(len) * sizeof(U);
      }
    } else {
      out->reserve(len);
      for (serde_internal::LengthPrefix i = 0; i < len; ++i) {
        U u;
        Serde<U>::Read(p, end, &u);
        out->push_back(std::move(u));
      }
    }
  }
};

namespace serde_internal {

/// Completeness probe: `sizeof(Serde<T>)` is a substitution failure
/// exactly when no definition (partial or full specialization) matches
/// T, because the primary template is declared but never defined.
/// Like every is-complete-style trait, the answer is cached at the
/// first point of instantiation — declare custom Serde specializations
/// before the first shuffle of that record type (the natural place is
/// right next to the type definition; see RankingView in
/// ranking/flat_rankings.h).
template <typename T, typename Enable = void>
struct SerdeDefined : std::false_type {};

template <typename T>
struct SerdeDefined<T, std::void_t<decltype(sizeof(Serde<T>))>>
    : std::true_type {};

}  // namespace serde_internal

/// Whether `Serde<T>` can actually serialize a T. Not the same as
/// `SerdeDefined`: the pair/vector specializations above are *defined*
/// for every element type but only *work* when the element types
/// recursively have a Serde, so this trait recurses through them.
template <typename T>
struct HasSerde : serde_internal::SerdeDefined<T> {};

template <typename A, typename B>
struct HasSerde<std::pair<A, B>>
    : std::bool_constant<HasSerde<A>::value && HasSerde<B>::value> {};

template <typename U>
struct HasSerde<std::vector<U>> : HasSerde<U> {};

/// True when the shuffle spill path can serialize T. Shuffles of types
/// where this is false run resident-only (they never spill), and the
/// plan linter raises MS004 for them whenever a spill budget is set.
template <typename T>
inline constexpr bool has_serde_v = HasSerde<T>::value;

}  // namespace rankjoin::minispark

#endif  // RANKJOIN_MINISPARK_SERDE_H_
