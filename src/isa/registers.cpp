#include "isa/registers.h"

#include <array>
#include <cctype>
#include <string>

namespace usca::isa {

namespace {

constexpr std::array<std::string_view, 16> names = {
    "r0", "r1", "r2", "r3", "r4",  "r5",  "r6", "r7",
    "r8", "r9", "r10", "r11", "r12", "sp", "lr", "pc"};

std::string lowercase(std::string_view text) {
  std::string out(text);
  for (char& ch : out) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  return out;
}

} // namespace

std::string_view reg_name(reg r) noexcept { return names[index_of(r)]; }

std::optional<reg> parse_reg(std::string_view text) noexcept {
  const std::string low = lowercase(text);
  if (low == "sp" || low == "r13") {
    return reg::sp;
  }
  if (low == "lr" || low == "r14") {
    return reg::lr;
  }
  if (low == "pc" || low == "r15") {
    return reg::pc;
  }
  if (low.size() >= 2 && low.size() <= 3 && low[0] == 'r') {
    int value = 0;
    for (std::size_t i = 1; i < low.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(low[i]))) {
        return std::nullopt;
      }
      value = value * 10 + (low[i] - '0');
    }
    if (value >= 0 && value < num_registers) {
      return reg_from_index(static_cast<std::uint8_t>(value));
    }
  }
  return std::nullopt;
}

} // namespace usca::isa
