"""Ensemble Kalman trainer for two-arm neural network surrogates.

Trains two feedforward arms and a convex averaging weight jointly with
a stochastic ensemble Kalman filter — no gradients. A softplus-linked
state coordinate carries the observation-noise variance, which under the
defaults stays at its prior mean of about 1 (see the README). The
posterior ensemble doubles as the uncertainty estimate:
pushing every member's prediction through the logistic function yields
empirical 95% intervals and adequacy diagnostics.
"""
