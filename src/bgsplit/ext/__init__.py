"""Bigraded Ext over exterior algebras and over the polynomial algebra P(2)."""
