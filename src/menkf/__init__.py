"""Ensemble Kalman trainer for two-arm neural network surrogates.

Trains two feedforward arms and a convex averaging weight jointly with
a stochastic ensemble Kalman filter — no gradients — while estimating
the observation-noise variance through a softplus-linked state
coordinate. The posterior ensemble doubles as the uncertainty estimate:
pushing every member's prediction through the logistic function yields
empirical 95% intervals and adequacy diagnostics.
"""
