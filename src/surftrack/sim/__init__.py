"""Distributed-style evolution simulation on a grid of processing elements."""
