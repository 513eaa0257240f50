#include "apps/astro3d/astro3d.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <span>

#include "common/bytes.h"
#include "common/log.h"
#include "prt/comm.h"

namespace msra::apps::astro3d {

const std::vector<std::string>& analysis_names() {
  static const std::vector<std::string> names = {"press", "temp", "rho",
                                                 "ux",    "uy",   "uz"};
  return names;
}

const std::vector<std::string>& viz_names() {
  static const std::vector<std::string> names = {
      "vr_scalar", "vr_press", "vr_rho", "vr_temp",
      "vr_mach",   "vr_ek",    "vr_logrho"};
  return names;
}

const std::vector<std::string>& checkpoint_names() {
  static const std::vector<std::string> names = {
      "restart_press", "restart_temp", "restart_rho",
      "restart_ux",    "restart_uy",   "restart_uz"};
  return names;
}

std::uint64_t Config::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& desc : dataset_descs(*this)) {
    total += desc.footprint_bytes(iterations);
  }
  return total;
}

std::vector<core::DatasetDesc> dataset_descs(const Config& config) {
  std::vector<core::DatasetDesc> out;
  auto hint_for = [&config](const std::string& name) {
    auto it = config.hints.find(name);
    return it == config.hints.end() ? config.default_location : it->second;
  };
  auto make = [&](const std::string& name, core::ElementType etype,
                  core::AccessMode amode, int freq) {
    core::DatasetDesc desc;
    desc.name = name;
    desc.amode = amode;
    desc.dims = config.dims;
    desc.etype = etype;
    desc.pattern = "BBB";
    desc.frequency = freq;
    desc.location = hint_for(name);
    desc.method = config.method;
    return desc;
  };
  for (const auto& name : analysis_names()) {
    auto desc = make(name, core::ElementType::kFloat32, core::AccessMode::kCreate,
                     config.analysis_freq);
    desc.usage = "analysis";
    out.push_back(std::move(desc));
  }
  for (const auto& name : viz_names()) {
    auto desc = make(name, core::ElementType::kUInt8, core::AccessMode::kCreate,
                     config.viz_freq);
    desc.usage = "visualization";
    out.push_back(std::move(desc));
  }
  for (const auto& name : checkpoint_names()) {
    auto desc = make(name, core::ElementType::kFloat32,
                     core::AccessMode::kOverWrite, config.checkpoint_freq);
    desc.usage = "checkpoint";
    out.push_back(std::move(desc));
  }
  return out;
}

// -------------------------------------------------------------- kernel ----

namespace {

/// Element strides of a row-major float block along dims 0 and 1. Dim 2
/// (k) is contiguous in every layout the kernel uses: a field's box, its
/// ghost-padded copy and a halo face on the wire.
using Strides = std::array<std::size_t, 2>;

/// Dense strides of a block with extents n.
Strides dense(const std::array<std::size_t, 3>& n) {
  return {n[1] * n[2], n[2]};
}

/// Copies n[0] x n[1] k-rows of n[2] floats from `src` to `dst`, each side
/// addressed with its own strides; either side may be a message buffer.
void copy_rows(const void* src, Strides from, void* dst, Strides to,
               const std::array<std::size_t, 3>& n) {
  const auto* in = static_cast<const std::byte*>(src);
  auto* out = static_cast<std::byte*>(dst);
  for (std::size_t a = 0; a < n[0]; ++a) {
    for (std::size_t b = 0; b < n[1]; ++b) {
      std::memcpy(out + (a * to[0] + b * to[1]) * sizeof(float),
                  in + (a * from[0] + b * from[1]) * sizeof(float),
                  n[2] * sizeof(float));
    }
  }
}

/// One rank's box (extents n, k-rows contiguous) and its ghost-padded copy
/// ((n0+2) x (n1+2) x (n2+2), the box at padded coordinates 1..n).
struct Layout {
  explicit Layout(const prt::LocalBox& box)
      : n{box.extent[0].size(), box.extent[1].size(), box.extent[2].size()},
        box(dense(n)),
        padded{(n[1] + 2) * (n[2] + 2), n[2] + 2} {}

  /// The extents of a face normal to dim d.
  std::array<std::size_t, 3> face(std::size_t d) const {
    auto out = n;
    out[d] = 1;
    return out;
  }
  /// Offset in the box of the face normal to d on side s (0 below, 1 above).
  std::size_t box_face(std::size_t d, int s) const {
    std::array<std::size_t, 3> at{};
    at[d] = s == 0 ? 0 : n[d] - 1;
    return at[0] * box[0] + at[1] * box[1] + at[2];
  }
  /// Offset in the padded block of the ghost plane normal to d on side s.
  std::size_t ghost(std::size_t d, int s) const {
    std::array<std::size_t, 3> at = {1, 1, 1};
    at[d] = s == 0 ? 0 : n[d] + 1;
    return at[0] * padded[0] + at[1] * padded[1] + at[2];
  }

  std::array<std::size_t, 3> n;
  Strides box;
  Strides padded;
};

}  // namespace

State::State(const prt::Decomposition& decomp, int rank)
    : box_(decomp.local_box(rank)) {
  for (auto& field : fields_) field = prt::Array3D<float>(box_);
  for (auto& field : scratch_) field = prt::Array3D<float>(box_);
  const prt::ProcessGrid& grid = decomp.grid();
  const auto coords = grid.coords_of(rank);
  for (std::size_t d = 0; d < 3; ++d) {
    for (int s = 0; s < 2; ++s) {
      auto n = coords;
      n[d] += (s == 0 ? -1 : 1);
      neighbor_[d][static_cast<std::size_t>(s)] =
          n[d] < 0 || n[d] >= grid.shape[d] ? -1 : grid.rank_of(n);
    }
  }
  const Layout layout(box_);
  padded_.resize((layout.n[0] + 2) * layout.padded[0]);
  heat_.resize(layout.n[0] + layout.n[1] + layout.n[2] - 2);
}

void State::initialize(const std::array<std::uint64_t, 3>& dims) {
  const double nx = static_cast<double>(dims[0]);
  const double ny = static_cast<double>(dims[1]);
  const double nz = static_cast<double>(dims[2]);
  for (std::uint64_t i = box_.extent[0].lo; i < box_.extent[0].hi; ++i) {
    for (std::uint64_t j = box_.extent[1].lo; j < box_.extent[1].hi; ++j) {
      for (std::uint64_t k = box_.extent[2].lo; k < box_.extent[2].hi; ++k) {
        const double x = (static_cast<double>(i) + 0.5) / nx;
        const double y = (static_cast<double>(j) + 0.5) / ny;
        const double z = (static_cast<double>(k) + 0.5) / nz;
        // A buoyant hot blob in a stratified background (sun-like envelope).
        const double r2 = (x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) +
                          (z - 0.35) * (z - 0.35);
        const double blob = std::exp(-40.0 * r2);
        const double strat = 1.0 + 0.4 * (1.0 - z);
        field(Field::kRho).at(i, j, k) = static_cast<float>(strat - 0.3 * blob);
        field(Field::kTemp).at(i, j, k) = static_cast<float>(1.0 + 2.0 * blob);
        field(Field::kPress).at(i, j, k) =
            static_cast<float>(strat * (1.0 + 2.0 * blob));
        field(Field::kUx).at(i, j, k) =
            static_cast<float>(0.1 * std::sin(6.28318 * y));
        field(Field::kUy).at(i, j, k) =
            static_cast<float>(0.1 * std::sin(6.28318 * z));
        field(Field::kUz).at(i, j, k) = static_cast<float>(0.25 * blob);
      }
    }
  }
}

void State::exchange_halo(prt::Comm& comm, Field f) {
  const Layout layout(box_);
  const float* src = fields_[static_cast<int>(f)].flat().data();
  const int base_tag = static_cast<int>(f) * 6;
  // A face travels in row-major order of the two dims it spans.
  // Post all sends first: our prt send() is buffered and never blocks.
  for (std::size_t d = 0; d < 3; ++d) {
    const auto face = layout.face(d);
    for (int s = 0; s < 2; ++s) {
      const int neighbor = neighbor_[d][static_cast<std::size_t>(s)];
      if (neighbor < 0) continue;
      ByteBuffer bytes(face[0] * face[1] * face[2] * sizeof(float));
      copy_rows(src + layout.box_face(d, s), layout.box, bytes.data(),
                dense(face), face);
      comm.send(neighbor, base_tag + static_cast<int>(d) * 2 + s,
                std::move(bytes));
    }
  }
  for (std::size_t d = 0; d < 3; ++d) {
    const auto face = layout.face(d);
    for (int s = 0; s < 2; ++s) {
      const int neighbor = neighbor_[d][static_cast<std::size_t>(s)];
      if (neighbor < 0) continue;
      // The neighbor in direction s sent its opposite face (1 - s).
      const auto bytes =
          comm.recv(neighbor, base_tag + static_cast<int>(d) * 2 + (1 - s));
      assert(bytes.size() == face[0] * face[1] * face[2] * sizeof(float));
      copy_rows(bytes.data(), dense(face), padded_.data() + layout.ghost(d, s),
                layout.padded, face);
    }
  }
}

void State::pad(Field f, prt::Comm* comm) {
  const Layout layout(box_);
  const auto [n0, n1, n2] = layout.n;
  const float* src = fields_[static_cast<int>(f)].flat().data();
  // Every ghost cell first repeats its nearest box cell: the clamped stencil
  // (the global-domain boundary condition, or the serial-mode approximation
  // at internal box edges).
  for (std::size_t pi = 0; pi < n0 + 2; ++pi) {
    const std::size_t i = std::clamp<std::size_t>(pi, 1, n0) - 1;
    for (std::size_t pj = 0; pj < n1 + 2; ++pj) {
      const std::size_t j = std::clamp<std::size_t>(pj, 1, n1) - 1;
      const float* row = src + (i * n1 + j) * n2;
      float* out =
          padded_.data() + pi * layout.padded[0] + pj * layout.padded[1];
      out[0] = row[0];
      std::copy_n(row, n2, out + 1);
      out[n2 + 1] = row[n2 - 1];
    }
  }
  // Inside the domain, the neighbor ranks' faces replace the clamp.
  if (comm != nullptr && comm->size() > 1) exchange_halo(*comm, f);
}

void State::step(int iteration, prt::Comm* comm) {
  const float dt = 0.1f;
  const float kappa = 0.15f;  // diffusion
  const Layout layout(box_);
  const auto [n0, n1, n2] = layout.n;
  const auto [di, dj] = layout.padded;
  // Explicit update: diffusion of every field plus velocity-driven upwind
  // advection and a time-varying heat source (a documented simplification
  // of the Godunov + Crank-Nicholson scheme — the I/O layers only need
  // honestly evolving fields). With a Comm, ghost faces make the parallel
  // evolution bit-identical to the serial one.
  //
  // A pulsing heat source keeps temp/press evolving (and MSE non-zero). It
  // depends on the global i + j + k only, so it is tabulated once per step.
  const float source_phase = 0.05f * static_cast<float>(iteration);
  const std::uint64_t corner =
      box_.extent[0].lo + box_.extent[1].lo + box_.extent[2].lo;
  for (std::size_t s = 0; s < heat_.size(); ++s) {
    heat_[s] = 0.02f *
               std::sin(source_phase + 0.1f * static_cast<float>(corner + s));
  }
  // Fields swap only after the sweep, so w is the pre-step uz throughout.
  const float* uz = field(Field::kUz).flat().data();
  for (int f = 0; f < kNumFields; ++f) {
    pad(static_cast<Field>(f), comm);
    float* out = scratch_[f].flat().data();
    for (std::size_t i = 0; i < n0; ++i) {
      for (std::size_t j = 0; j < n1; ++j) {
        // Row (i, j) of the box in the padding, its four neighbor rows in x
        // and y, and itself shifted one cell down and up in z.
        const float* c = padded_.data() + (i + 1) * di + (j + 1) * dj + 1;
        const float* x_lo = c - di;
        const float* x_hi = c + di;
        const float* y_lo = c - dj;
        const float* y_hi = c + dj;
        const float* z_lo = c - 1;
        const float* z_hi = c + 1;
        const std::size_t row = (i * n1 + j) * n2;
        const float* w = uz + row;
        float* dst = out + row;
        for (std::size_t k = 0; k < n2; ++k) {
          const float center = c[k];
          const float lap = x_lo[k] + x_hi[k] + y_lo[k] + y_hi[k] + z_lo[k] +
                            z_hi[k] - 6.0f * center;
          float value = center + dt * kappa * lap;
          // First-order upwind advection along uz (cheap, keeps motion):
          // center - below for w > 0, else above - center. Selecting the
          // operands, not the differences, lets the compiler vectorize it.
          const bool rising = w[k] > 0;
          const float upwind =
              (rising ? center : z_hi[k]) - (rising ? z_lo[k] : center);
          value -= dt * w[k] * upwind;
          dst[k] = value;
        }
        const float* heat = heat_.data() + i + j;
        if (f == static_cast<int>(Field::kTemp)) {
          for (std::size_t k = 0; k < n2; ++k) dst[k] += heat[k];
        } else if (f == static_cast<int>(Field::kPress)) {
          for (std::size_t k = 0; k < n2; ++k) dst[k] += 0.5f * heat[k];
        }
      }
    }
  }
  for (int f = 0; f < kNumFields; ++f) std::swap(fields_[f], scratch_[f]);
}

std::vector<std::uint8_t> State::render_field(const std::string& vr_name) const {
  // Map the derived quantity to floats, then normalize this block to uchar.
  const auto rho = field(Field::kRho).flat();
  const auto press = field(Field::kPress).flat();
  const auto ux = field(Field::kUx).flat();
  const auto uy = field(Field::kUy).flat();
  const auto uz = field(Field::kUz).flat();
  std::vector<float> derived;
  auto derive = [&](auto&& fn) {
    derived.resize(rho.size());
    for (std::size_t x = 0; x < derived.size(); ++x) derived[x] = fn(x);
    return std::span<const float>(derived);
  };
  std::span<const float> values;
  if (vr_name == "vr_scalar" || vr_name == "vr_temp") {
    values = field(Field::kTemp).flat();
  } else if (vr_name == "vr_press") {
    values = press;
  } else if (vr_name == "vr_rho") {
    values = rho;
  } else if (vr_name == "vr_mach") {
    values = derive([&](std::size_t x) {
      const float u2 = ux[x] * ux[x] + uy[x] * uy[x] + uz[x] * uz[x];
      const float c2 = std::max(1e-6f, press[x] / std::max(1e-6f, rho[x]));
      return std::sqrt(u2 / c2);
    });
  } else if (vr_name == "vr_ek") {
    values = derive([&](std::size_t x) {
      const float u2 = ux[x] * ux[x] + uy[x] * uy[x] + uz[x] * uz[x];
      return 0.5f * rho[x] * u2;
    });
  } else {  // vr_logrho
    values = derive(
        [&](std::size_t x) { return std::log(std::max(1e-6f, rho[x])); });
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

// ----------------------------------------------------------------- run ----

StatusOr<Result> run(core::Session& session, const Config& config) {
  const auto descs = dataset_descs(config);
  std::map<std::string, core::DatasetHandle*> handles;
  for (const auto& desc : descs) {
    MSRA_ASSIGN_OR_RETURN(core::DatasetHandle * handle, session.open(desc));
    handles[desc.name] = handle;
  }
  MSRA_ASSIGN_OR_RETURN(
      prt::Decomposition decomp,
      prt::Decomposition::create(config.dims, config.nprocs, "BBB"));

  // Resuming: the latest restart_* dump in the metadata tells us where the
  // interrupted run left off.
  int start_iteration = 0;
  if (config.resume) {
    const auto instances = session.catalog().instances(
        session.options().application, "restart_press");
    if (instances.empty()) {
      return Status::NotFound("resume requested but no checkpoint exists");
    }
    int latest = instances.front().timestep;
    for (const auto& instance : instances) {
      latest = std::max(latest, instance.timestep);
    }
    start_iteration = latest + 1;
  }

  static const std::pair<const char*, Field> kCheckpointFields[] = {
      {"restart_press", Field::kPress}, {"restart_temp", Field::kTemp},
      {"restart_rho", Field::kRho},     {"restart_ux", Field::kUx},
      {"restart_uy", Field::kUy},       {"restart_uz", Field::kUz}};

  Result result;
  result.start_iteration = start_iteration;
  Status run_status = Status::Ok();
  std::mutex result_mutex;

  prt::World world(config.nprocs);
  world.run([&](prt::Comm& comm) {
    State state(decomp, comm.rank());
    Status my_status = Status::Ok();
    if (config.resume) {
      for (const auto& [name, field] : kCheckpointFields) {
        if (!my_status.ok()) break;
        my_status = handles[name]->read_timestep(comm, start_iteration - 1,
                                                 state.field(field).bytes());
      }
    } else {
      state.initialize(config.dims);
    }
    std::uint64_t my_bytes = 0;
    std::uint64_t my_dumps = 0;

    auto dump_float = [&](const std::string& name, Field field, int iteration) {
      if (!my_status.ok()) return;
      auto bytes = state.field(field).bytes();
      my_status = handles[name]->write_timestep(comm, iteration, bytes);
      if (my_status.ok() && handles[name]->enabled()) {
        my_bytes += bytes.size();
        ++my_dumps;
      }
    };
    auto dump_viz = [&](const std::string& name, int iteration) {
      if (!my_status.ok()) return;
      auto pixels = state.render_field(name);
      std::span<const std::byte> bytes(
          reinterpret_cast<const std::byte*>(pixels.data()), pixels.size());
      my_status = handles[name]->write_timestep(comm, iteration, bytes);
      if (my_status.ok() && handles[name]->enabled()) {
        my_bytes += bytes.size();
        ++my_dumps;
      }
    };

    double compute_time = 0.0;
    for (int it = start_iteration; it <= config.iterations && my_status.ok();
         ++it) {
      if (it > 0) {
        state.step(it, &comm);
        if (config.compute_seconds_per_iteration > 0.0) {
          comm.timeline().advance(config.compute_seconds_per_iteration);
          compute_time += config.compute_seconds_per_iteration;
        }
      }
      if (it % config.analysis_freq == 0) {
        dump_float("press", Field::kPress, it);
        dump_float("temp", Field::kTemp, it);
        dump_float("rho", Field::kRho, it);
        dump_float("ux", Field::kUx, it);
        dump_float("uy", Field::kUy, it);
        dump_float("uz", Field::kUz, it);
      }
      if (it % config.viz_freq == 0) {
        for (const auto& name : viz_names()) dump_viz(name, it);
      }
      if (it % config.checkpoint_freq == 0) {
        dump_float("restart_press", Field::kPress, it);
        dump_float("restart_temp", Field::kTemp, it);
        dump_float("restart_rho", Field::kRho, it);
        dump_float("restart_ux", Field::kUx, it);
        dump_float("restart_uy", Field::kUy, it);
        dump_float("restart_uz", Field::kUz, it);
      }
    }
    comm.sync_time();
    std::lock_guard<std::mutex> lock(result_mutex);
    if (!my_status.ok() && run_status.ok()) run_status = my_status;
    if (comm.rank() == 0) {
      result.total_time = comm.timeline().now();
      result.io_time = result.total_time - compute_time;
      result.dumps = my_dumps;
    }
    result.bytes_written += my_bytes;
  });
  MSRA_RETURN_IF_ERROR(run_status);
  for (const auto& [name, handle] : handles) {
    result.placements[name] = handle->location();
  }
  return result;
}

}  // namespace msra::apps::astro3d
