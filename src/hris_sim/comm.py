"""BS precoding and per-UE link metrics for a fixed HRIS reflection config."""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .hris import REFLECTION, HrisConfig


@dataclass(eq=False)
class LinkBudget:
    sinr: np.ndarray
    sum_rate: float  # bits/s/Hz
    direct_power_fraction: np.ndarray  # per UE, in [0, 1]


def effective_channels(channels: ChannelSet, theta: HrisConfig, eta: float) -> np.ndarray:
    """End-to-end MISO channel per UE, as columns of an (M, K) matrix.

    Column k is h_d_k + sqrt(eta) * G^H (theta * h_k), the Hermitian of the
    receive-side row sqrt(eta) h_k^H Theta G + h_d_k^H.
    """
    if theta.branch != REFLECTION:
        raise ValueError("effective channel needs a reflection-branch config")
    reflected = channels.G.conj().T @ (theta.phases[:, None] * channels.h.T)
    return channels.h_d.T + np.sqrt(eta) * reflected


def rzf_precoder(h_eff: np.ndarray, p_total: float, noise_var: float) -> np.ndarray:
    """Regularized zero-forcing: the (M, K) precoder sqrt(P) (HH^H + mu I)^-1 H,
    Frobenius-normalized, with mu = K * noise_var / P."""
    if p_total <= 0:
        raise ValueError("total power must be positive")
    m, k = h_eff.shape
    mu = k * noise_var / p_total
    x = np.linalg.solve(h_eff @ h_eff.conj().T + mu * np.eye(m), h_eff)
    return np.sqrt(p_total) * x / np.linalg.norm(x)


def evaluate(h_eff: np.ndarray, h_d: np.ndarray, w: np.ndarray,
             noise_var: float) -> LinkBudget:
    """Per-UE SINR, network sum-rate, and direct-path power fraction of the
    (M, K) precoder ``w``, over the (M, K) :func:`effective_channels`."""
    a = h_eff.conj().T @ w  # a[k, j] = e_k^H w_j
    sig = np.abs(np.diag(a)) ** 2
    interference = (np.abs(a) ** 2).sum(axis=1) - sig
    sinr = sig / (noise_var + interference)
    sum_rate = float(np.log2(1.0 + sinr).sum())
    direct = np.abs(np.einsum("km,mk->k", h_d.conj(), w)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(sig > 0, direct / sig, 0.0)
    return LinkBudget(sinr=sinr, sum_rate=sum_rate,
                      direct_power_fraction=np.clip(frac, 0.0, 1.0))
