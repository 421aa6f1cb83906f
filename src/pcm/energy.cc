#include "pcm/energy.hh"

#include <sstream>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace pcmscrub {

const char *
energyCategoryName(EnergyCategory category)
{
    switch (category) {
      case EnergyCategory::ArrayRead:
        return "array_read";
      case EnergyCategory::MarginRead:
        return "margin_read";
      case EnergyCategory::ArrayWrite:
        return "array_write";
      case EnergyCategory::Detect:
        return "detect";
      case EnergyCategory::Decode:
        return "decode";
      default:
        panic("bad energy category %u", static_cast<unsigned>(category));
    }
}

void
EnergyAccount::add(EnergyCategory category, PicoJoule amount)
{
    PCMSCRUB_ASSERT(amount >= 0.0, "negative energy %f", amount);
    byCategory_[static_cast<unsigned>(category)] += amount;
}

PicoJoule
EnergyAccount::get(EnergyCategory category) const
{
    return byCategory_[static_cast<unsigned>(category)];
}

PicoJoule
EnergyAccount::total() const
{
    PicoJoule sum = 0.0;
    for (const auto value : byCategory_)
        sum += value;
    return sum;
}

void
EnergyAccount::merge(const EnergyAccount &other)
{
    for (unsigned c = 0; c < byCategory_.size(); ++c)
        byCategory_[c] += other.byCategory_[c];
}

void
EnergyAccount::saveState(SnapshotSink &sink) const
{
    for (const auto value : byCategory_)
        sink.f64(value);
}

void
EnergyAccount::loadState(SnapshotSource &source)
{
    for (auto &value : byCategory_) {
        value = source.f64();
        if (!(value >= 0.0))
            source.corrupt("negative or NaN energy total");
    }
}

std::string
EnergyAccount::toString() const
{
    std::ostringstream out;
    out << "energy(pJ):";
    for (unsigned c = 0; c < byCategory_.size(); ++c) {
        out << " " << energyCategoryName(static_cast<EnergyCategory>(c))
            << "=" << byCategory_[c];
    }
    out << " total=" << total();
    return out.str();
}

} // namespace pcmscrub
