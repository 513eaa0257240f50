#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>

#include "apps/astro3d/astro3d.h"
#include "apps/imgview/image.h"
#include "apps/mse/mse.h"
#include "apps/vizlib/vizlib.h"
#include "apps/volren/volren.h"
#include "runtime/superfile.h"

namespace msra::apps {
namespace {

using core::HardwareProfile;
using core::Location;
using core::Session;
using core::StorageSystem;

// ------------------------------------------------------------- imgview ---

TEST(ImageTest, PgmRoundTrip) {
  imgview::Image image;
  image.width = 7;
  image.height = 5;
  image.pixels.resize(35);
  std::iota(image.pixels.begin(), image.pixels.end(), 10);
  auto encoded = imgview::encode_pgm(image);
  auto decoded = imgview::decode_pgm(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->width, 7);
  EXPECT_EQ(decoded->height, 5);
  EXPECT_EQ(decoded->pixels, image.pixels);
}

TEST(ImageTest, DecodeRejectsGarbage) {
  std::vector<std::byte> junk(10, std::byte{'x'});
  EXPECT_FALSE(imgview::decode_pgm(junk).ok());
  // Truncated payload.
  imgview::Image image;
  image.width = 4;
  image.height = 4;
  image.pixels.resize(16, 9);
  auto encoded = imgview::encode_pgm(image);
  encoded.resize(encoded.size() - 4);
  EXPECT_FALSE(imgview::decode_pgm(encoded).ok());
}

TEST(ImageTest, StatsAndHistogram) {
  imgview::Image image;
  image.width = 4;
  image.height = 2;
  image.pixels = {0, 0, 16, 16, 255, 255, 128, 128};
  auto stats = imgview::compute_stats(image);
  EXPECT_EQ(stats.min, 0);
  EXPECT_EQ(stats.max, 255);
  EXPECT_NEAR(stats.mean, 99.75, 1e-9);
  EXPECT_EQ(stats.histogram[0], 2u);   // two 0s
  EXPECT_EQ(stats.histogram[1], 2u);   // two 16s
  EXPECT_EQ(stats.histogram[8], 2u);   // two 128s
  EXPECT_EQ(stats.histogram[15], 2u);  // two 255s
}

TEST(ImageTest, AsciiRenderShape) {
  imgview::Image image;
  image.width = 64;
  image.height = 64;
  image.pixels.assign(64 * 64, 200);
  const std::string art = imgview::ascii_render(image, 32);
  EXPECT_NE(art.find('\n'), std::string::npos);
  EXPECT_EQ(art.find(' '), std::string::npos) << "bright image has no blanks";
}

// ----------------------------------------------------------------- mse ---

TEST(MseTest, MaxSquareError) {
  std::vector<float> a = {1.0f, 2.0f, 3.0f};
  std::vector<float> b = {1.0f, 4.0f, 3.5f};
  EXPECT_DOUBLE_EQ(mse::max_square_error(a, b), 4.0);
  EXPECT_DOUBLE_EQ(mse::max_square_error(a, a), 0.0);
}

// ------------------------------------------------------------- astro3d ---

TEST(Astro3DTest, DatasetInventoryMatchesPaper) {
  astro3d::Config config;
  auto descs = astro3d::dataset_descs(config);
  EXPECT_EQ(descs.size(), 19u);  // 6 analysis + 7 viz + 6 checkpoint
  EXPECT_EQ(astro3d::analysis_names().size(), 6u);
  EXPECT_EQ(astro3d::viz_names().size(), 7u);
  EXPECT_EQ(astro3d::checkpoint_names().size(), 6u);
  int floats = 0, uchars = 0, overwrites = 0;
  for (const auto& desc : descs) {
    if (desc.etype == core::ElementType::kFloat32) ++floats;
    if (desc.etype == core::ElementType::kUInt8) ++uchars;
    if (desc.amode == core::AccessMode::kOverWrite) ++overwrites;
    EXPECT_EQ(desc.pattern, "BBB");
  }
  EXPECT_EQ(floats, 12);
  EXPECT_EQ(uchars, 7);
  EXPECT_EQ(overwrites, 6);
}

TEST(Astro3DTest, Table2VolumeIsAboutTwoPointTwoGigabytes) {
  astro3d::Config config;  // the paper's Table 2 defaults
  const double gib = static_cast<double>(config.total_bytes()) / (1u << 30);
  // 21 dumps x (6x8 MiB + 7x2 MiB) + 6x8 MiB checkpoints ≈ 1.3 GiB payload;
  // the paper quotes ~2.2 GB counting its slightly different accounting —
  // we assert the order of magnitude.
  EXPECT_GT(gib, 1.0);
  EXPECT_LT(gib, 3.0);
}

TEST(Astro3DTest, HintsFlowIntoDescriptors) {
  astro3d::Config config;
  config.hints["temp"] = Location::kRemoteDisk;
  config.hints["vr_temp"] = Location::kLocalDisk;
  config.default_location = Location::kRemoteTape;
  for (const auto& desc : astro3d::dataset_descs(config)) {
    if (desc.name == "temp") {
      EXPECT_EQ(desc.location, Location::kRemoteDisk);
    } else if (desc.name == "vr_temp") {
      EXPECT_EQ(desc.location, Location::kLocalDisk);
    } else {
      EXPECT_EQ(desc.location, Location::kRemoteTape);
    }
  }
}

TEST(Astro3DTest, KernelEvolvesDeterministically) {
  auto decomp = prt::Decomposition::create({12, 12, 12}, 1, "BBB");
  ASSERT_TRUE(decomp.ok());
  astro3d::State a(*decomp, 0), b(*decomp, 0);
  a.initialize({12, 12, 12});
  b.initialize({12, 12, 12});
  for (int it = 1; it <= 5; ++it) {
    a.step(it);
    b.step(it);
  }
  EXPECT_EQ(0, std::memcmp(a.field(astro3d::Field::kTemp).bytes().data(),
                           b.field(astro3d::Field::kTemp).bytes().data(),
                           a.field(astro3d::Field::kTemp).bytes().size()));
  // And it actually changes over time (MSE needs a moving field).
  astro3d::State fresh(*decomp, 0);
  fresh.initialize({12, 12, 12});
  EXPECT_NE(0, std::memcmp(a.field(astro3d::Field::kTemp).bytes().data(),
                           fresh.field(astro3d::Field::kTemp).bytes().data(),
                           a.field(astro3d::Field::kTemp).bytes().size()));
}

TEST(Astro3DTest, FieldsStayFinite) {
  auto decomp = prt::Decomposition::create({16, 16, 16}, 1, "BBB");
  ASSERT_TRUE(decomp.ok());
  astro3d::State state(*decomp, 0);
  state.initialize({16, 16, 16});
  for (int it = 1; it <= 30; ++it) state.step(it);
  for (int f = 0; f < astro3d::kNumFields; ++f) {
    for (float v : state.field(static_cast<astro3d::Field>(f)).flat()) {
      ASSERT_TRUE(std::isfinite(v));
      ASSERT_LT(std::abs(v), 100.0f);
    }
  }
}

TEST(Astro3DTest, RenderFieldCoversFullRange) {
  auto decomp = prt::Decomposition::create({16, 16, 16}, 1, "BBB");
  ASSERT_TRUE(decomp.ok());
  astro3d::State state(*decomp, 0);
  state.initialize({16, 16, 16});
  for (const auto& name : astro3d::viz_names()) {
    auto pixels = state.render_field(name);
    ASSERT_EQ(pixels.size(), 16u * 16 * 16);
    const auto [lo, hi] = std::minmax_element(pixels.begin(), pixels.end());
    EXPECT_EQ(*lo, 0) << name;
    EXPECT_EQ(*hi, 255) << name;
  }
}

// The per-cell kernel and renderer: the references State::step's padded
// sweep and State::render_field must match bit for bit. Serial only: every
// stencil read goes through `reference_sample`, which clamps an index one
// cell outside the box to the box's edge, and the heat term calls sin once
// per cell.
using Fields = std::array<prt::Array3D<float>, astro3d::kNumFields>;

const prt::Array3D<float>& of(const Fields& fields, astro3d::Field f) {
  return fields[static_cast<std::size_t>(f)];
}

float reference_sample(const prt::Array3D<float>& src, std::int64_t i,
                       std::int64_t j, std::int64_t k) {
  const std::array<std::int64_t, 3> idx = {i, j, k};
  std::array<std::uint64_t, 3> inside{};
  for (std::size_t d = 0; d < 3; ++d) {
    const auto lo = static_cast<std::int64_t>(src.box().extent[d].lo);
    const auto hi = static_cast<std::int64_t>(src.box().extent[d].hi);
    inside[d] = static_cast<std::uint64_t>(std::clamp(idx[d], lo, hi - 1));
  }
  return src.at(inside[0], inside[1], inside[2]);
}

void reference_step(Fields& fields, int iteration) {
  const float dt = 0.1f;
  const float kappa = 0.15f;
  const auto& e = fields[0].box().extent;
  const float source_phase = 0.05f * static_cast<float>(iteration);
  Fields next = fields;
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const auto& src = fields[f];
    auto& dst = next[f];
    for (std::uint64_t i = e[0].lo; i < e[0].hi; ++i) {
      for (std::uint64_t j = e[1].lo; j < e[1].hi; ++j) {
        for (std::uint64_t k = e[2].lo; k < e[2].hi; ++k) {
          const auto si = static_cast<std::int64_t>(i);
          const auto sj = static_cast<std::int64_t>(j);
          const auto sk = static_cast<std::int64_t>(k);
          const float center = src.at(i, j, k);
          const float lap = reference_sample(src, si - 1, sj, sk) +
                            reference_sample(src, si + 1, sj, sk) +
                            reference_sample(src, si, sj - 1, sk) +
                            reference_sample(src, si, sj + 1, sk) +
                            reference_sample(src, si, sj, sk - 1) +
                            reference_sample(src, si, sj, sk + 1) -
                            6.0f * center;
          float value = center + dt * kappa * lap;
          const float w = of(fields, astro3d::Field::kUz).at(i, j, k);
          const float below = reference_sample(src, si, sj, sk - 1);
          const float above = reference_sample(src, si, sj, sk + 1);
          const float upwind = w > 0 ? center - below : above - center;
          value -= dt * w * upwind;
          dst.at(i, j, k) = value;
        }
      }
    }
  }
  fields = std::move(next);
  auto& temp = fields[static_cast<std::size_t>(astro3d::Field::kTemp)];
  auto& press = fields[static_cast<std::size_t>(astro3d::Field::kPress)];
  for (std::uint64_t i = e[0].lo; i < e[0].hi; ++i) {
    for (std::uint64_t j = e[1].lo; j < e[1].hi; ++j) {
      for (std::uint64_t k = e[2].lo; k < e[2].hi; ++k) {
        const float heat =
            0.02f * std::sin(source_phase + 0.1f * static_cast<float>(i + j + k));
        temp.at(i, j, k) += heat;
        press.at(i, j, k) += 0.5f * heat;
      }
    }
  }
}

std::vector<std::uint8_t> reference_render(const Fields& fields,
                                           const std::string& vr_name) {
  const auto& e = fields[0].box().extent;
  std::vector<float> values;
  auto push_all = [&](auto&& fn) {
    for (std::uint64_t i = e[0].lo; i < e[0].hi; ++i) {
      for (std::uint64_t j = e[1].lo; j < e[1].hi; ++j) {
        for (std::uint64_t k = e[2].lo; k < e[2].hi; ++k) {
          values.push_back(fn(i, j, k));
        }
      }
    }
  };
  const auto& rho = of(fields, astro3d::Field::kRho);
  const auto& temp = of(fields, astro3d::Field::kTemp);
  const auto& press = of(fields, astro3d::Field::kPress);
  const auto& ux = of(fields, astro3d::Field::kUx);
  const auto& uy = of(fields, astro3d::Field::kUy);
  const auto& uz = of(fields, astro3d::Field::kUz);
  if (vr_name == "vr_scalar" || vr_name == "vr_temp") {
    push_all([&](auto i, auto j, auto k) { return temp.at(i, j, k); });
  } else if (vr_name == "vr_press") {
    push_all([&](auto i, auto j, auto k) { return press.at(i, j, k); });
  } else if (vr_name == "vr_rho") {
    push_all([&](auto i, auto j, auto k) { return rho.at(i, j, k); });
  } else if (vr_name == "vr_mach") {
    push_all([&](auto i, auto j, auto k) {
      const float u2 = ux.at(i, j, k) * ux.at(i, j, k) +
                       uy.at(i, j, k) * uy.at(i, j, k) +
                       uz.at(i, j, k) * uz.at(i, j, k);
      const float c2 = std::max(1e-6f, press.at(i, j, k) /
                                           std::max(1e-6f, rho.at(i, j, k)));
      return std::sqrt(u2 / c2);
    });
  } else if (vr_name == "vr_ek") {
    push_all([&](auto i, auto j, auto k) {
      const float u2 = ux.at(i, j, k) * ux.at(i, j, k) +
                       uy.at(i, j, k) * uy.at(i, j, k) +
                       uz.at(i, j, k) * uz.at(i, j, k);
      return 0.5f * rho.at(i, j, k) * u2;
    });
  } else {  // vr_logrho
    push_all([&](auto i, auto j, auto k) {
      return std::log(std::max(1e-6f, rho.at(i, j, k)));
    });
  }
  float lo = values[0], hi = values[0];
  for (float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const float scale = hi > lo ? 255.0f / (hi - lo) : 0.0f;
  std::vector<std::uint8_t> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((values[i] - lo) * scale);
  }
  return out;
}

Fields fields_of(const astro3d::State& state) {
  Fields out;
  for (std::size_t f = 0; f < out.size(); ++f) {
    out[f] = state.field(static_cast<astro3d::Field>(f));
  }
  return out;
}

// Fills every field with a reproducible value in [-1, 1) per global cell,
// whatever the decomposition: rough fields, and uz of both signs, so the
// upwind difference takes both sides.
void scramble(astro3d::State& state) {
  const auto& e = state.box().extent;
  for (int f = 0; f < astro3d::kNumFields; ++f) {
    auto& field = state.field(static_cast<astro3d::Field>(f));
    for (std::uint64_t i = e[0].lo; i < e[0].hi; ++i) {
      for (std::uint64_t j = e[1].lo; j < e[1].hi; ++j) {
        for (std::uint64_t k = e[2].lo; k < e[2].hi; ++k) {
          std::uint64_t x = (((static_cast<std::uint64_t>(f) * 1000003 + i) *
                                  1000003 + j) * 1000003 + k) + 1;
          x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdULL;
          x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ULL;
          x ^= x >> 33;
          field.at(i, j, k) = static_cast<float>(x >> 40) * 0x1.0p-23f - 1.0f;
        }
      }
    }
  }
}

// True when `mine` holds exactly the bits of `ref` over mine's box.
bool same_bits(const prt::Array3D<float>& mine,
               const prt::Array3D<float>& ref) {
  std::vector<float> window;
  const auto& e = mine.box().extent;
  for (std::uint64_t i = e[0].lo; i < e[0].hi; ++i) {
    for (std::uint64_t j = e[1].lo; j < e[1].hi; ++j) {
      for (std::uint64_t k = e[2].lo; k < e[2].hi; ++k) {
        window.push_back(ref.at(i, j, k));
      }
    }
  }
  return window.size() == mine.volume() &&
         std::memcmp(window.data(), mine.flat().data(),
                     window.size() * sizeof(float)) == 0;
}

std::string dims_name(const std::array<std::uint64_t, 3>& dims) {
  return std::to_string(dims[0]) + "x" + std::to_string(dims[1]) + "x" +
         std::to_string(dims[2]);
}

// One rank: every ghost plane is a clamp. Odd extents, and extents of 1, 2
// and 3 in each position, from the smooth initial condition and scrambled.
TEST(Astro3DTest, PaddedSweepMatchesPerCellKernelSerially) {
  const std::array<std::uint64_t, 3> shapes[] = {
      {7, 5, 9}, {1, 1, 1}, {1, 2, 3}, {3, 1, 2}, {2, 3, 1},
      {1, 7, 1}, {2, 2, 2}, {3, 3, 3}, {12, 10, 8}};
  for (const auto& dims : shapes) {
    for (const bool smooth : {true, false}) {
      auto decomp = prt::Decomposition::create(dims, 1, "BBB");
      ASSERT_TRUE(decomp.ok());
      astro3d::State state(*decomp, 0);
      if (smooth) {
        state.initialize(dims);
      } else {
        scramble(state);
      }
      Fields reference = fields_of(state);
      for (int it = 1; it <= 10; ++it) {
        state.step(it);
        reference_step(reference, it);
      }
      for (int f = 0; f < astro3d::kNumFields; ++f) {
        EXPECT_TRUE(same_bits(state.field(static_cast<astro3d::Field>(f)),
                              reference[static_cast<std::size_t>(f)]))
            << dims_name(dims) << (smooth ? " smooth" : " scrambled")
            << " field " << f;
      }
    }
  }
}

// Several ranks: every ghost plane inside the domain holds a neighbor's
// face, and the result is still the serial reference's, bit for bit. The
// shapes include boxes one cell thick in each split dimension.
TEST(Astro3DTest, PaddedSweepMatchesPerCellKernelAcrossRanks) {
  const std::array<std::uint64_t, 3> shapes[] = {
      {12, 10, 8}, {3, 5, 7}, {2, 3, 4}, {6, 2, 3}, {2, 2, 3}, {4, 6, 2}};
  std::array<int, 3> thin = {0, 0, 0};
  for (const int nprocs : {2, 3, 4, 6, 8}) {
    for (const auto& dims : shapes) {
      auto decomp = prt::Decomposition::create(dims, nprocs, "BBB");
      if (!decomp.ok()) continue;  // more ranks than cells along a dimension
      for (int rank = 0; rank < nprocs; ++rank) {
        const prt::LocalBox box = decomp->local_box(rank);
        for (std::size_t d = 0; d < 3; ++d) {
          if (decomp->grid().shape[d] > 1 && box.extent[d].size() == 1) {
            ++thin[d];
          }
        }
      }
      auto serial = prt::Decomposition::create(dims, 1, "BBB");
      ASSERT_TRUE(serial.ok());
      astro3d::State whole(*serial, 0);
      scramble(whole);
      Fields reference = fields_of(whole);
      for (int it = 1; it <= 8; ++it) reference_step(reference, it);

      std::mutex mismatch_mutex;
      std::vector<std::string> mismatches;
      prt::World world(nprocs);
      world.run([&](prt::Comm& comm) {
        astro3d::State state(*decomp, comm.rank());
        scramble(state);
        for (int it = 1; it <= 8; ++it) state.step(it, &comm);
        for (int f = 0; f < astro3d::kNumFields; ++f) {
          if (same_bits(state.field(static_cast<astro3d::Field>(f)),
                        reference[static_cast<std::size_t>(f)])) {
            continue;
          }
          std::lock_guard<std::mutex> lock(mismatch_mutex);
          mismatches.push_back("rank " + std::to_string(comm.rank()) +
                               " field " + std::to_string(f));
        }
      });
      EXPECT_TRUE(mismatches.empty())
          << dims_name(dims) << " on " << nprocs << " ranks: "
          << mismatches.size() << " mismatches; first: " << mismatches.front();
    }
  }
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_GT(thin[d], 0) << "no box one cell thick in split dim " << d;
  }
}

TEST(Astro3DTest, RenderFieldMatchesPerCellReference) {
  const std::array<std::uint64_t, 3> dims = {7, 5, 6};
  auto decomp = prt::Decomposition::create(dims, 1, "BBB");
  ASSERT_TRUE(decomp.ok());
  for (const bool smooth : {true, false}) {
    astro3d::State state(*decomp, 0);
    if (smooth) {
      state.initialize(dims);
    } else {
      scramble(state);
    }
    for (int it = 1; it <= 3; ++it) state.step(it);
    const Fields fields = fields_of(state);
    for (const auto& name : astro3d::viz_names()) {
      EXPECT_EQ(state.render_field(name), reference_render(fields, name))
          << name << (smooth ? " smooth" : " scrambled");
    }
  }
}

// -------------------------------------------------------------- volren ---

TEST(VolrenTest, EmptyVolumeRendersBlack) {
  std::vector<std::uint8_t> volume(8 * 8 * 8, 0);
  auto image = volren::render(volume, {8, 8, 8}, 16, 16, 0, 16);
  for (auto p : image.pixels) EXPECT_EQ(p, 0);
}

TEST(VolrenTest, DenseVolumeRendersBright) {
  // 8 samples at alpha 0.05 accumulate ~34% opacity: 255 * 0.337 ≈ 86.
  std::vector<std::uint8_t> volume(8 * 8 * 8, 255);
  auto image = volren::render(volume, {8, 8, 8}, 16, 16, 0, 16);
  for (auto p : image.pixels) EXPECT_GT(p, 60);
  // A deeper volume saturates further.
  std::vector<std::uint8_t> deep(8 * 8 * 64, 255);
  auto deep_image = volren::render(deep, {8, 8, 64}, 8, 8, 0, 8);
  for (auto p : deep_image.pixels) EXPECT_GT(p, 200);
}

TEST(VolrenTest, FrontOccludesBack) {
  // A bright front half vs a bright back half: front-to-back compositing
  // must make the front-lit image at least as bright.
  std::vector<std::uint8_t> front(8 * 8 * 8, 0), back(8 * 8 * 8, 0);
  for (std::size_t i = 0; i < front.size(); ++i) {
    if (i % 8 < 4) front[i] = 255;  // k < 4
    if (i % 8 >= 4) back[i] = 255;  // k >= 4
  }
  auto fi = volren::render(front, {8, 8, 8}, 8, 8, 0, 8);
  auto bi = volren::render(back, {8, 8, 8}, 8, 8, 0, 8);
  double fsum = 0, bsum = 0;
  for (auto p : fi.pixels) fsum += p;
  for (auto p : bi.pixels) bsum += p;
  EXPECT_GE(fsum, bsum);
  EXPECT_GT(fsum, 0.0);
}

TEST(VolrenTest, RowRangeIsRespected) {
  std::vector<std::uint8_t> volume(8 * 8 * 8, 255);
  auto image = volren::render(volume, {8, 8, 8}, 8, 8, 2, 4);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      if (y >= 2 && y < 4) {
        EXPECT_GT(image.at(x, y), 0);
      } else {
        EXPECT_EQ(image.at(x, y), 0);
      }
    }
  }
}

// -------------------------------------------------------------- vizlib ---

TEST(VizlibTest, IsosurfaceCountsStraddlingCells) {
  // A field that is -1 in the lower half (k < 2) and +1 above: the iso=0
  // surface crosses exactly the cell layer spanning k in [1, 2].
  std::array<std::uint64_t, 3> dims = {4, 4, 4};
  std::vector<float> volume(64);
  for (std::uint64_t i = 0; i < 4; ++i) {
    for (std::uint64_t j = 0; j < 4; ++j) {
      for (std::uint64_t k = 0; k < 4; ++k) {
        volume[(i * 4 + j) * 4 + k] = k < 2 ? -1.0f : 1.0f;
      }
    }
  }
  EXPECT_EQ(vizlib::count_isosurface_cells(volume, dims, 0.0f), 3u * 3 * 1);
  EXPECT_EQ(vizlib::count_isosurface_cells(volume, dims, 2.0f), 0u);
}

TEST(VizlibTest, HistogramBinsAndClamps) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> volume = {-10.0f, 0.05f, 0.15f, 0.95f, 10.0f,
                               // Scaled far past any integer range.
                               2.0f, 1e30f, inf, -1e30f, -inf,
                               std::numeric_limits<float>::quiet_NaN()};
  auto hist = vizlib::field_histogram(volume, 0.0f, 1.0f, 10);
  EXPECT_EQ(hist.size(), 10u);
  EXPECT_EQ(hist[0], 4u);  // -10, -1e30 and -inf clamped + 0.05
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[9], 5u);  // 0.95 + 10, 2, 1e30 and inf clamped
  // The NaN lands in no bin.
  EXPECT_EQ(std::accumulate(hist.begin(), hist.end(), 0ull), 10ull);
}

// ------------------------------------------------ end-to-end pipeline ----

// The paper's Fig. 1(b) environment at miniature scale: Astro3D produces,
// MSE / Volren / vizlib consume — across three storage media.
TEST(PipelineTest, ProducerConsumersEndToEnd) {
  StorageSystem system(HardwareProfile::test_profile());
  Session session(system, {.application = "astro3d", .user = "xshen",
                           .nprocs = 2, .iterations = 6});
  astro3d::Config config;
  config.dims = {16, 16, 16};
  config.iterations = 6;
  config.analysis_freq = 2;
  config.viz_freq = 3;
  config.checkpoint_freq = 3;
  config.nprocs = 2;
  config.hints["temp"] = Location::kRemoteDisk;
  config.hints["vr_temp"] = Location::kLocalDisk;
  config.default_location = Location::kRemoteTape;

  auto produced = astro3d::run(session, config);
  ASSERT_TRUE(produced.ok()) << produced.status().to_string();
  EXPECT_GT(produced->io_time, 0.0);
  EXPECT_EQ(produced->placements.at("temp"), Location::kRemoteDisk);
  EXPECT_EQ(produced->placements.at("vr_temp"), Location::kLocalDisk);
  EXPECT_EQ(produced->placements.at("press"), Location::kRemoteTape);
  // 4 analysis dumps x6 + 3 viz dumps x7 + 3 checkpoint dumps x6.
  EXPECT_EQ(produced->dumps, 4u * 6 + 3u * 7 + 3u * 6);

  // MSE on temp: fields evolve, so every MSE is positive.
  auto analysis = mse::run(session, {.dataset = "temp", .nprocs = 2});
  ASSERT_TRUE(analysis.ok()) << analysis.status().to_string();
  EXPECT_EQ(analysis->timesteps.size(), 4u);  // t = 0, 2, 4, 6
  for (double v : analysis->mse) EXPECT_GT(v, 0.0);
  EXPECT_GT(analysis->io_time, 0.0);

  // Volren over vr_temp: 3 images (t = 0, 3, 6) from local disk.
  auto rendered = volren::run(
      session, {.dataset = "vr_temp", .width = 32, .height = 32, .nprocs = 2,
                .image_location = Location::kLocalDisk});
  ASSERT_TRUE(rendered.ok()) << rendered.status().to_string();
  EXPECT_EQ(rendered->images, 3);

  // The image viewer can decode what Volren stored.
  simkit::Timeline tl;
  auto& endpoint = system.endpoint(Location::kLocalDisk);
  auto listed = endpoint.list(tl, "volren/images/");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 3u);
  std::vector<std::byte> blob(listed->front().size);
  auto file = runtime::FileSession::start(endpoint, tl, listed->front().name,
                                          srb::OpenMode::kRead);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->read(blob).ok());
  auto image = imgview::decode_pgm(blob);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->width, 32);

  // Interactive visualization: slice + isosurface directly via the API.
  auto handle = session.open_existing("temp");
  ASSERT_TRUE(handle.ok());
  auto slice =
      vizlib::extract_slice(**handle, 2, vizlib::Axis::kZ, 8, {.timeline = &tl});
  ASSERT_TRUE(slice.ok()) << slice.status().to_string();
  EXPECT_EQ(slice->width, 16);
  EXPECT_EQ(slice->height, 16);
  auto cells = vizlib::isosurface_cells_of(**handle, 2, 1.2f, {.timeline = &tl});
  ASSERT_TRUE(cells.ok());
  EXPECT_GT(*cells, 0u);
}

TEST(PipelineTest, DisableSkipsDatasetsEntirely) {
  StorageSystem system(HardwareProfile::test_profile());
  Session session(system, {.application = "astro3d", .nprocs = 1,
                           .iterations = 4});
  astro3d::Config config;
  config.dims = {8, 8, 8};
  config.iterations = 4;
  config.analysis_freq = 2;
  config.viz_freq = 2;
  config.checkpoint_freq = 2;
  config.nprocs = 1;
  // Only temp and press are kept (the paper's Fig. 9(3) scenario).
  config.default_location = Location::kDisable;
  config.hints["temp"] = Location::kRemoteDisk;
  config.hints["press"] = Location::kRemoteDisk;

  auto produced = astro3d::run(session, config);
  ASSERT_TRUE(produced.ok());
  EXPECT_EQ(produced->dumps, 3u * 2);  // 3 dumps x 2 live datasets
  // Nothing else landed on any medium.
  simkit::Timeline tl;
  EXPECT_TRUE(system.endpoint(Location::kRemoteTape).list(tl, "astro3d/")->empty());
  auto disk_objects = system.endpoint(Location::kRemoteDisk).list(tl, "astro3d/");
  ASSERT_TRUE(disk_objects.ok());
  EXPECT_EQ(disk_objects->size(), 6u);
}

TEST(PipelineTest, VolrenSuperfilePathWorks) {
  StorageSystem system(HardwareProfile::test_profile());
  Session session(system, {.application = "astro3d", .nprocs = 1,
                           .iterations = 4});
  astro3d::Config config;
  config.dims = {8, 8, 8};
  config.iterations = 4;
  config.analysis_freq = 4;
  config.viz_freq = 1;
  config.checkpoint_freq = 4;
  config.nprocs = 1;
  config.default_location = Location::kDisable;
  config.hints["vr_rho"] = Location::kLocalDisk;
  ASSERT_TRUE(astro3d::run(session, config).ok());

  auto rendered = volren::run(
      session, {.dataset = "vr_rho", .width = 16, .height = 16, .nprocs = 1,
                .image_location = Location::kRemoteDisk, .use_superfile = true,
                .image_base = "volren/super"});
  ASSERT_TRUE(rendered.ok()) << rendered.status().to_string();
  EXPECT_EQ(rendered->images, 5);
  // All five images live in one superfile object.
  simkit::Timeline tl;
  auto reader = runtime::SuperfileReader::open(
      system.endpoint(Location::kRemoteDisk), tl, "volren/super/all.super");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->names().size(), 5u);
  auto member = reader->read("img_t2.pgm");
  ASSERT_TRUE(member.ok());
  EXPECT_TRUE(imgview::decode_pgm(*member).ok());
}

// Parallel evolution with halo exchange must match the serial run exactly
// (the ghost faces reconstruct the full stencil across rank boundaries).
class HaloEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(HaloEquivalence, ParallelMatchesSerialBitForBit) {
  const int nprocs = GetParam();
  const std::array<std::uint64_t, 3> dims = {12, 10, 8};

  // Serial reference.
  auto serial_decomp = prt::Decomposition::create(dims, 1, "BBB");
  ASSERT_TRUE(serial_decomp.ok());
  astro3d::State reference(*serial_decomp, 0);
  reference.initialize(dims);
  for (int it = 1; it <= 6; ++it) reference.step(it);

  // Parallel run with ghost exchange.
  auto decomp = prt::Decomposition::create(dims, nprocs, "BBB");
  ASSERT_TRUE(decomp.ok());
  prt::World world(nprocs);
  std::mutex mismatch_mutex;
  std::vector<std::string> mismatches;
  world.run([&](prt::Comm& comm) {
    astro3d::State state(*decomp, comm.rank());
    state.initialize(dims);
    for (int it = 1; it <= 6; ++it) state.step(it, &comm);
    // Compare this rank's block against the reference.
    const prt::LocalBox box = decomp->local_box(comm.rank());
    for (int f = 0; f < astro3d::kNumFields; ++f) {
      const auto field = static_cast<astro3d::Field>(f);
      for (std::uint64_t i = box.extent[0].lo; i < box.extent[0].hi; ++i) {
        for (std::uint64_t j = box.extent[1].lo; j < box.extent[1].hi; ++j) {
          for (std::uint64_t k = box.extent[2].lo; k < box.extent[2].hi; ++k) {
            const float mine = state.field(field).at(i, j, k);
            const float ref = reference.field(field).at(i, j, k);
            if (mine != ref) {
              std::lock_guard<std::mutex> lock(mismatch_mutex);
              mismatches.push_back(
                  "field " + std::to_string(f) + " at (" + std::to_string(i) +
                  "," + std::to_string(j) + "," + std::to_string(k) + "): " +
                  std::to_string(mine) + " vs " + std::to_string(ref));
            }
          }
        }
      }
    }
  });
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " mismatches; first: " << mismatches.front();
}

INSTANTIATE_TEST_SUITE_P(Ranks, HaloEquivalence, ::testing::Values(2, 4, 8));

// Checkpoint/restart: interrupt a run at its checkpoint, resume in a new
// session, and land on exactly the state of an uninterrupted run.
TEST(CheckpointRestartTest, ResumedRunMatchesUninterrupted) {
  const std::array<std::uint64_t, 3> dims = {12, 12, 12};
  auto make_config = [&dims] {
    astro3d::Config config;
    config.dims = dims;
    config.iterations = 12;
    config.analysis_freq = 6;
    config.viz_freq = 12;
    config.checkpoint_freq = 6;
    config.nprocs = 2;
    config.default_location = core::Location::kRemoteDisk;
    return config;
  };

  // Uninterrupted reference run.
  StorageSystem ref_system(HardwareProfile::test_profile());
  Session ref_session(ref_system, {.application = "astro3d", .nprocs = 2,
                                   .iterations = 12});
  ASSERT_TRUE(astro3d::run(ref_session, make_config()).ok());
  simkit::Timeline ref_tl;
  auto ref_handle = ref_session.open_existing("temp");
  ASSERT_TRUE(ref_handle.ok());
  auto reference = (*ref_handle)->read_whole(12, {.timeline = &ref_tl});
  ASSERT_TRUE(reference.ok());

  // Interrupted run: stop after iteration 6 (checkpoint lands at t=6)...
  StorageSystem system(HardwareProfile::test_profile());
  {
    Session first(system, {.application = "astro3d", .nprocs = 2,
                           .iterations = 6});
    astro3d::Config config = make_config();
    config.iterations = 6;
    auto result = astro3d::run(first, config);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->start_iteration, 0);
  }
  // ...then resume in a fresh session and finish.
  {
    Session second(system, {.application = "astro3d", .nprocs = 2,
                            .iterations = 12});
    astro3d::Config config = make_config();
    config.resume = true;
    auto result = astro3d::run(second, config);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->start_iteration, 7);

    simkit::Timeline tl;
    auto handle = second.open_existing("temp");
    ASSERT_TRUE(handle.ok());
    auto resumed = (*handle)->read_whole(12, {.timeline = &tl});
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ(*resumed, *reference)
        << "resumed evolution must be bit-identical";
  }
}

TEST(CheckpointRestartTest, ResumeWithoutCheckpointFails) {
  StorageSystem system(HardwareProfile::test_profile());
  Session session(system, {.application = "astro3d", .nprocs = 1,
                           .iterations = 4});
  astro3d::Config config;
  config.dims = {8, 8, 8};
  config.iterations = 4;
  config.nprocs = 1;
  config.resume = true;
  config.default_location = core::Location::kRemoteDisk;
  EXPECT_EQ(astro3d::run(session, config).status().code(),
            ErrorCode::kNotFound);
}

}  // namespace
}  // namespace msra::apps
