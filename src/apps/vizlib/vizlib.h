// Interactive-visualization stand-in (the paper's "VTK" consumer).
//
// Reads datasets directly through the MSRA API — slices for 2-D views,
// isosurface cell classification for 3-D views — exercising the partial-
// access paths (sieving / subfile) that make local placement pay off.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "apps/imgview/image.h"
#include "core/msra.h"

namespace msra::apps::vizlib {

/// Axis of a slice.
enum class Axis { kX = 0, kY = 1, kZ = 2 };

/// Extracts a 2-D slice (normalized to uchar for float data) at `index`
/// along `axis` of one dumped timestep, reading only the slice's bytes.
/// `options` is forwarded to DatasetHandle::read_box (access strategy,
/// trace label, timeline — defaulting to the handle's session clock).
StatusOr<imgview::Image> extract_slice(core::DatasetHandle& handle,
                                       int timestep, Axis axis,
                                       std::uint64_t index,
                                       const core::ReadOptions& options = {});

/// Marching-cubes-style cell classification: counts grid cells whose corner
/// values straddle `iso` (i.e. cells the isosurface passes through).
std::uint64_t count_isosurface_cells(std::span<const float> volume,
                                     const std::array<std::uint64_t, 3>& dims,
                                     float iso);

/// Histogram of a float volume over `bins` equal-width bins of [lo, hi].
/// Values below lo count in the first bin and values above hi (+inf too) in
/// the last. NaN values are skipped: they belong to no bin, so the counts
/// sum to the number of non-NaN values.
std::vector<std::uint64_t> field_histogram(std::span<const float> volume,
                                           float lo, float hi, int bins);

/// Reads a whole float timestep and classifies it against `iso`.
StatusOr<std::uint64_t> isosurface_cells_of(core::DatasetHandle& handle,
                                            int timestep, float iso,
                                            const core::ReadOptions& options = {});

}  // namespace msra::apps::vizlib
