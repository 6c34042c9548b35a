#include "harness/scenario.hpp"

#include <stdexcept>

#include "simcore/glob.hpp"

namespace gridsim::harness {

double ScenarioResult::metric(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  throw std::out_of_range("no metric named '" + name + "'");
}

bool ScenarioResult::has_metric(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return true;
  return false;
}

void ScenarioRegistry::add(ScenarioSpec spec) {
  if (spec.name.empty())
    throw std::invalid_argument("scenario with empty name");
  if (!spec.run)
    throw std::invalid_argument("scenario '" + spec.name +
                                "' has no workload closure");
  if (by_name_.count(spec.name) != 0)
    throw std::invalid_argument("duplicate scenario name '" + spec.name +
                                "'");
  if (spec.group.empty()) spec.group = spec.name;
  by_name_[spec.name] = scenarios_.size();
  scenarios_.push_back(std::move(spec));
}

void ScenarioRegistry::set_renderer(const std::string& group,
                                    GroupRenderer render) {
  if (!render)
    throw std::invalid_argument("null renderer for group '" + group + "'");
  if (renderers_.count(group) != 0)
    throw std::invalid_argument("duplicate renderer for group '" + group +
                                "'");
  renderers_[group] = std::move(render);
}

std::vector<std::size_t> ScenarioRegistry::match(
    const std::string& pattern) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    const ScenarioSpec& s = scenarios_[i];
    if (glob_match(pattern, s.name) || glob_match(pattern, s.group))
      out.push_back(i);
  }
  return out;
}

const ScenarioSpec* ScenarioRegistry::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &scenarios_[it->second];
}

const GroupRenderer* ScenarioRegistry::renderer(
    const std::string& group) const {
  const auto it = renderers_.find(group);
  return it == renderers_.end() ? nullptr : &it->second;
}

std::vector<std::string> ScenarioRegistry::groups() const {
  std::vector<std::string> out;
  for (const ScenarioSpec& s : scenarios_) {
    bool seen = false;
    for (const auto& g : out) seen = seen || g == s.group;
    if (!seen) out.push_back(s.group);
  }
  return out;
}

}  // namespace gridsim::harness
