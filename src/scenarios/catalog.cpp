#include "scenarios/catalog.hpp"

#include "scenarios/catalog_internal.hpp"

namespace gridsim::scenarios {

namespace detail {

std::vector<mpi::ImplProfile> profiles_with_tcp() {
  std::vector<mpi::ImplProfile> v;
  v.push_back(profiles::raw_tcp());
  for (auto& p : profiles::all_implementations()) v.push_back(p);
  return v;
}

std::string render_kernel_table(
    const std::string& title, const std::vector<std::string>& impl_names,
    const std::vector<std::map<npb::Kernel, double>>& per_impl,
    int precision) {
  std::vector<std::string> headers{"kernel"};
  for (const auto& n : impl_names) headers.push_back(n);
  std::vector<std::vector<std::string>> rows;
  for (npb::Kernel k : npb::all_kernels()) {
    rows.push_back({npb::name(k)});
    for (const auto& m : per_impl)
      rows.back().push_back(harness::format_double(m.at(k), precision));
  }
  return harness::render_table(title, headers, rows);
}

}  // namespace detail

const harness::ScenarioRegistry& paper_registry() {
  static const harness::ScenarioRegistry registry = [] {
    harness::ScenarioRegistry reg;
    detail::register_pingpong_catalog(reg);
    detail::register_slowstart_catalog(reg);
    detail::register_nas_catalog(reg);
    detail::register_apps_catalog(reg);
    detail::register_robust_catalog(reg);
    detail::register_mc_catalog(reg);
    detail::register_lint_catalog(reg);
    detail::register_coll_catalog(reg);
    return reg;
  }();
  return registry;
}

}  // namespace gridsim::scenarios
