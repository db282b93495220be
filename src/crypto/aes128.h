// Golden AES-128 implementation (FIPS-197).
//
// This is the reference model: it validates the generated AL32 AES
// program, produces the round-key schedule installed into simulated
// memory, and supplies the intermediate values that the CPA hypothesis
// models target (the paper attacks the Hamming weight / distances of
// first-round SubBytes outputs).
#ifndef USCA_CRYPTO_AES128_H
#define USCA_CRYPTO_AES128_H

#include <array>
#include <cstdint>
#include <span>

namespace usca::crypto {

using aes_block = std::array<std::uint8_t, 16>;
using aes_key = std::array<std::uint8_t, 16>;

/// The AES S-box.
const std::array<std::uint8_t, 256>& aes_sbox() noexcept;

/// Expanded key schedule: 11 round keys of 16 bytes.
using aes_round_keys = std::array<std::uint8_t, 176>;
aes_round_keys expand_key(const aes_key& key) noexcept;

/// One-shot ECB encryption of a single block.
aes_block encrypt_block(const aes_block& plaintext, const aes_key& key) noexcept;

/// SubBytes output for a single byte position given a key-byte guess:
/// sbox[pt_byte ^ guess].  The CPA hypothesis function.
std::uint8_t subbytes_hypothesis(std::uint8_t pt_byte,
                                 std::uint8_t guess) noexcept;

/// xtime: multiplication by {02} in GF(2^8) with the AES polynomial —
/// exposed because the generated MixColumns mirrors this shift-reduce.
std::uint8_t xtime(std::uint8_t value) noexcept;

} // namespace usca::crypto

#endif // USCA_CRYPTO_AES128_H
