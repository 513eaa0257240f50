#include "apps/vizlib/vizlib.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace msra::apps::vizlib {

StatusOr<imgview::Image> extract_slice(core::DatasetHandle& handle,
                                       int timestep, Axis axis,
                                       std::uint64_t index,
                                       const core::ReadOptions& options) {
  const auto& dims = handle.desc().dims;
  const auto a = static_cast<std::size_t>(axis);
  if (index >= dims[a]) return Status::InvalidArgument("slice index out of range");
  prt::LocalBox box;
  for (std::size_t d = 0; d < 3; ++d) box.extent[d] = {0, dims[d]};
  box.extent[a] = {index, index + 1};

  const std::size_t elem = core::element_size(handle.desc().etype);
  std::vector<std::byte> raw(box.volume() * elem);
  MSRA_RETURN_IF_ERROR(handle.read_box(timestep, box, raw, options));

  // The slice plane's two in-plane dimensions, in row-major order.
  std::array<std::size_t, 2> plane{};
  switch (axis) {
    case Axis::kX: plane = {1, 2}; break;
    case Axis::kY: plane = {0, 2}; break;
    case Axis::kZ: plane = {0, 1}; break;
  }
  imgview::Image image;
  image.height = static_cast<int>(dims[plane[0]]);
  image.width = static_cast<int>(dims[plane[1]]);
  const std::size_t count = static_cast<std::size_t>(image.width) *
                            static_cast<std::size_t>(image.height);
  image.pixels.resize(count);

  if (handle.desc().etype == core::ElementType::kUInt8) {
    std::memcpy(image.pixels.data(), raw.data(), count);
  } else if (handle.desc().etype == core::ElementType::kFloat32) {
    std::vector<float> values(count);
    std::memcpy(values.data(), raw.data(), count * sizeof(float));
    float lo = values[0], hi = values[0];
    for (float v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const float scale = hi > lo ? 255.0f / (hi - lo) : 0.0f;
    for (std::size_t i = 0; i < count; ++i) {
      image.pixels[i] = static_cast<std::uint8_t>((values[i] - lo) * scale);
    }
  } else {
    return Status::Unimplemented("slice extraction for this element type");
  }
  return image;
}

std::uint64_t count_isosurface_cells(std::span<const float> volume,
                                     const std::array<std::uint64_t, 3>& dims,
                                     float iso) {
  const std::uint64_t nx = dims[0], ny = dims[1], nz = dims[2];
  auto at = [&](std::uint64_t i, std::uint64_t j, std::uint64_t k) {
    return volume[static_cast<std::size_t>((i * ny + j) * nz + k)];
  };
  std::uint64_t cells = 0;
  for (std::uint64_t i = 0; i + 1 < nx; ++i) {
    for (std::uint64_t j = 0; j + 1 < ny; ++j) {
      for (std::uint64_t k = 0; k + 1 < nz; ++k) {
        bool below = false, above = false;
        for (int c = 0; c < 8; ++c) {
          const float v = at(i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1));
          (v < iso ? below : above) = true;
        }
        if (below && above) ++cells;
      }
    }
  }
  return cells;
}

std::vector<std::uint64_t> field_histogram(std::span<const float> volume,
                                           float lo, float hi, int bins) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(std::max(1, bins)), 0);
  if (hi <= lo) return out;
  const float size = static_cast<float>(out.size());
  const float scale = size / (hi - lo);
  for (float v : volume) {
    const float x = (v - lo) * scale;
    if (std::isnan(x)) continue;
    // Clamp before converting: a float beyond the integer range (1e30, inf)
    // has no defined conversion.
    const auto bin = static_cast<std::size_t>(std::clamp(x, 0.0f, size));
    out[std::min(bin, out.size() - 1)]++;
  }
  return out;
}

StatusOr<std::uint64_t> isosurface_cells_of(core::DatasetHandle& handle,
                                            int timestep, float iso,
                                            const core::ReadOptions& options) {
  if (handle.desc().etype != core::ElementType::kFloat32) {
    return Status::InvalidArgument("isosurface expects float data");
  }
  MSRA_ASSIGN_OR_RETURN(auto raw, handle.read_whole(timestep, options));
  std::vector<float> volume(raw.size() / sizeof(float));
  std::memcpy(volume.data(), raw.data(), raw.size());
  return count_isosurface_cells(volume, handle.desc().dims, iso);
}

}  // namespace msra::apps::vizlib
