#include "util/bitops.h"

namespace usca::util {

bool is_arm_immediate(std::uint32_t value) noexcept {
  for (unsigned rot = 0; rot < 32; rot += 2) {
    if ((rotate_left(value, rot) & ~0xffU) == 0) {
      return true;
    }
  }
  return false;
}

} // namespace usca::util
