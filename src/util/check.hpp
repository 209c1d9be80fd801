// Contracts layer: the repo-wide replacement for raw assert() and silent-UB
// indexing. Four macro families, one failure funnel:
//
//   DQN_CHECK(cond, msg...)       precondition at an API boundary
//   DQN_CHECK_RANGE(index, size)  bounds check with both values in the report
//   DQN_INVARIANT(cond, msg...)   internal consistency the module owns
//   DQN_UNREACHABLE(msg...)       control flow that must never be reached
//   DQN_ENSURE(cond, msg...)      validation that survives every build mode
//                                 (I/O parsing, untrusted input)
//
// Message arguments are streamed (`DQN_CHECK(a == b, "got ", a, " want ", b)`)
// so call sites need no format strings and pay nothing until failure.
//
// CHECK / CHECK_RANGE / INVARIANT compile out to nothing when
// DQN_CONTRACTS_DISABLED is defined (the CMake option DQN_CONTRACTS=AUTO
// disables them for Release builds, mirroring NDEBUG); the condition is kept
// in an unevaluated operand so variables stay odr-used and builds stay
// warning-clean. ENSURE and UNREACHABLE are always live: malformed input and
// impossible control flow must not become silent UB in Release.
//
// Every live violation funnels through handle_contract_failure(), which
// throws dqn::util::contract_violation carrying the canonical report
// "file:line: <kind> failed: <expression> (<message>)".
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace dqn::util {

// Thrown by every failed contract. Derives from std::logic_error so call
// sites that used to throw invalid_argument/out_of_range style errors keep a
// catchable common base.
class contract_violation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

// The single failure funnel: throws contract_violation with the report.
[[noreturn]] void handle_contract_failure(const char* file, int line,
                                          const char* kind,
                                          const char* expression,
                                          std::string message);

namespace detail {

inline void stream_parts(std::ostringstream&) {}

template <typename First, typename... Rest>
void stream_parts(std::ostringstream& os, First&& first, Rest&&... rest) {
  os << first;
  stream_parts(os, static_cast<Rest&&>(rest)...);
}

template <typename... Parts>
[[nodiscard]] std::string format_message(Parts&&... parts) {
  if constexpr (sizeof...(Parts) == 0) {
    return {};
  } else {
    std::ostringstream os;
    stream_parts(os, static_cast<Parts&&>(parts)...);
    return os.str();
  }
}

// Declared, never defined: used inside sizeof() to keep compiled-out contract
// operands odr-used (no unused-variable warnings) without evaluating them.
template <typename... Ts>
int odr_use(Ts&&...);

// Range check shared by DQN_CHECK_RANGE; kept out-of-line of the macro so
// index/size are evaluated exactly once and reported with their values.
template <typename Index, typename Size>
void check_range(Index index, Size size, const char* file, int line,
                 const char* index_expr, const char* size_expr) {
  bool ok;
  if constexpr (std::is_signed_v<Index>) {
    ok = index >= 0 && static_cast<std::uint64_t>(index) <
                           static_cast<std::uint64_t>(size);
  } else {
    ok = static_cast<std::uint64_t>(index) < static_cast<std::uint64_t>(size);
  }
  if (!ok) {
    handle_contract_failure(
        file, line, "range", index_expr,
        format_message(index_expr, " = ", index, " out of range [0, ",
                       size_expr, " = ", size, ")"));
  }
}

}  // namespace detail

#if defined(DQN_CONTRACTS_DISABLED)
inline constexpr bool contracts_enabled = false;
#else
inline constexpr bool contracts_enabled = true;
#endif

}  // namespace dqn::util

// Always-on validation: input parsing, file I/O, untrusted data.
#define DQN_ENSURE(cond, ...)                                              \
  (static_cast<bool>(cond)                                                 \
       ? static_cast<void>(0)                                              \
       : ::dqn::util::handle_contract_failure(                             \
             __FILE__, __LINE__, "ensure", #cond,                          \
             ::dqn::util::detail::format_message(__VA_ARGS__)))

// Always-on impossible-control-flow marker; never returns.
#define DQN_UNREACHABLE(...)                                               \
  ::dqn::util::handle_contract_failure(                                    \
      __FILE__, __LINE__, "unreachable",                                   \
      "control flow reached a DQN_UNREACHABLE site",                       \
      ::dqn::util::detail::format_message(__VA_ARGS__))

#if !defined(DQN_CONTRACTS_DISABLED)

#define DQN_CHECK(cond, ...)                                               \
  (static_cast<bool>(cond)                                                 \
       ? static_cast<void>(0)                                              \
       : ::dqn::util::handle_contract_failure(                             \
             __FILE__, __LINE__, "check", #cond,                           \
             ::dqn::util::detail::format_message(__VA_ARGS__)))

#define DQN_INVARIANT(cond, ...)                                           \
  (static_cast<bool>(cond)                                                 \
       ? static_cast<void>(0)                                              \
       : ::dqn::util::handle_contract_failure(                             \
             __FILE__, __LINE__, "invariant", #cond,                       \
             ::dqn::util::detail::format_message(__VA_ARGS__)))

#define DQN_CHECK_RANGE(index, size)                                       \
  ::dqn::util::detail::check_range((index), (size), __FILE__, __LINE__,    \
                                   #index, #size)

#else  // DQN_CONTRACTS_DISABLED: compile out, keep operands odr-used.

#define DQN_CHECK(cond, ...)                             \
  static_cast<void>(sizeof(::dqn::util::detail::odr_use( \
      (cond)__VA_OPT__(, ) __VA_ARGS__)))
#define DQN_INVARIANT(cond, ...)                         \
  static_cast<void>(sizeof(::dqn::util::detail::odr_use( \
      (cond)__VA_OPT__(, ) __VA_ARGS__)))
#define DQN_CHECK_RANGE(index, size) \
  static_cast<void>(sizeof(::dqn::util::detail::odr_use((index), (size))))

#endif  // DQN_CONTRACTS_DISABLED
