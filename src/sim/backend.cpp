#include "sim/backend.h"

#include <utility>

#include "sim/ooo/ooo_core.h"
#include "sim/pipeline.h"
#include "util/telemetry.h"

namespace usca::sim {

std::string_view backend_kind_name(backend_kind kind) noexcept {
  switch (kind) {
  case backend_kind::inorder:
    return "inorder";
  case backend_kind::ooo:
    return "ooo";
  }
  return "?";
}

std::optional<backend_kind> parse_backend_kind(std::string_view text) noexcept {
  if (text == "inorder" || text == "in-order") {
    return backend_kind::inorder;
  }
  if (text == "ooo" || text == "out-of-order") {
    return backend_kind::ooo;
  }
  return std::nullopt;
}

void restore_data_images(const asmx::program& prog,
                         std::span<mem::memory> memories,
                         std::size_t cache_sets) {
  static const telem::counter restored_bytes{"sim.lane.bytes_restored",
                                             "bytes", "sim"};
  static const telem::counter restored_sets{"sim.lane.cache_sets_restored",
                                            "sets", "sim"};
  std::size_t bytes = 0;
  for (mem::memory& m : memories) {
    bytes += m.reset();
    m.load(prog.data_base, prog.data);
  }
  restored_bytes.add(bytes);
  restored_sets.add(cache_sets);
}

std::unique_ptr<backend> make_backend(backend_kind kind, program_image image,
                                      const micro_arch_config& config) {
  switch (kind) {
  case backend_kind::inorder:
    return std::make_unique<pipeline>(std::move(image), config);
  case backend_kind::ooo:
    return std::make_unique<ooo_core>(std::move(image), config);
  }
  return nullptr;
}

} // namespace usca::sim
