#include "ecc/code.hh"

#include "common/logging.hh"

namespace pcmscrub {

BitVector
Code::extractData(const BitVector &codeword) const
{
    PCMSCRUB_ASSERT(codeword.size() == codewordBits(),
                    "codeword length %zu != %zu",
                    codeword.size(), codewordBits());
    BitVector data(dataBits());
    for (std::size_t i = 0; i < dataBits(); ++i)
        data.set(i, codeword.get(i));
    return data;
}

} // namespace pcmscrub
