"""Seed construction: coefficient expression language and heat-type seeds."""
