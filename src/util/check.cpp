#include "util/check.hpp"

namespace dqn::util {

void handle_contract_failure(const char* file, int line, const char* kind,
                             const char* expression, std::string message) {
  std::string report = std::string{file} + ':' + std::to_string(line) + ": " +
                       kind + " failed: " + expression;
  if (!message.empty()) report += " (" + message + ')';
  throw contract_violation{report};
}

}  // namespace dqn::util
